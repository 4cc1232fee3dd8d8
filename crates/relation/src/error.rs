//! Error type for the relational substrate.

/// Errors raised by schema and table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A tuple had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of columns the schema defines.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// Two columns in a schema share a name.
    DuplicateColumn(String),
    /// A column index was outside the schema.
    UnknownColumnIndex(usize),
    /// A row position was outside the table.
    UnknownRow(usize),
    /// A value had an unexpected type for the operation.
    TypeMismatch {
        /// Human-readable description of what was expected.
        expected: &'static str,
        /// Display form of the offending value.
        found: String,
    },
    /// A CSV line could not be parsed.
    CsvParse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl std::fmt::Display for RelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            RelationError::ArityMismatch { expected, actual } => {
                write!(f, "arity mismatch: schema has {expected} columns, tuple has {actual}")
            }
            RelationError::DuplicateColumn(name) => write!(f, "duplicate column: {name}"),
            RelationError::UnknownColumnIndex(index) => write!(f, "unknown column index: {index}"),
            RelationError::UnknownRow(row) => write!(f, "unknown row: {row}"),
            RelationError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelationError::CsvParse { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_details() {
        assert!(RelationError::UnknownColumn("age".into()).to_string().contains("age"));
        assert!(RelationError::ArityMismatch { expected: 6, actual: 5 }.to_string().contains('6'));
        assert!(RelationError::UnknownColumnIndex(7).to_string().contains('7'));
        assert!(RelationError::UnknownRow(42).to_string().contains("42"));
        assert!(RelationError::CsvParse { line: 3, message: "bad int".into() }
            .to_string()
            .contains("line 3"));
    }
}
