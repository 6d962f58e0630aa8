"""Reference implementations the test suites compare ``src/`` against."""
