"""Channel-independent patch-transformer forecaster with selective
global-information injection, on a minimal reverse-mode numeric core."""
