"""Reference implementations that exist only for the tests to compare against."""
