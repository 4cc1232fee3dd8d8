//! Plain-text (CSV) import and export: the body format of every
//! data-carrying wire command, the CLI's file format and the examples'
//! hand-off to an "outsourcee".
//!
//! The first record is the header of column names. Fields are separated by
//! `,` and records end at `\n`, `\r\n` or a lone `\r`. A `"` opens a
//! quoted run in which `,`, line breaks and escaped quotes (`""`) are field
//! content; [`to_csv`] quotes exactly the fields that contain a comma, a
//! quote or a line break. Empty lines are skipped, a line holding only
//! whitespace is skipped after the header, and a lone `""` is a row. Fields
//! are trimmed and typed by [`Value::parse`](crate::Value::parse). A
//! duplicate header name fails as [`RelationError::DuplicateColumn`], every
//! other failure as [`RelationError::CsvParse`] with the line the offending
//! record starts on. `docs/PROTOCOL.md` §4.1 has the full grammar.
//!
//! [`from_csv`] reads the text in one pass over its bytes and builds the
//! columns directly: fields are borrowed slices unless they need unescaping,
//! and each column parses each distinct field once.

use crate::column::{slot, ColumnBuilder};
use crate::error::RelationError;
use crate::schema::{ColumnDef, ColumnRole, Schema};
use crate::table::Table;
use std::borrow::Cow;

/// Serialize a table to CSV text: a header of column names followed by one
/// line per tuple, values in display form. Each dictionary entry is
/// rendered once; rows are written by code lookup into one buffer sized up
/// front.
pub fn to_csv(table: &Table) -> String {
    let names: Vec<String> =
        table.schema().columns().iter().map(|column| escape_field(&column.name)).collect();
    let header = names.join(",");
    let rendered: Vec<Vec<String>> = table
        .columns()
        .iter()
        .map(|column| column.dict().iter().map(|v| escape_field(&v.to_string())).collect())
        .collect();
    // The header line, one separator or line break per cell, and the cells.
    let separators = table.len().saturating_mul(names.len());
    let size = table.columns().iter().zip(&rendered).fold(
        header.len().saturating_add(1).saturating_add(separators),
        |size, (column, fields)| {
            size.saturating_add(column.codes().iter().map(|&c| fields[slot(c)].len()).sum())
        },
    );
    let mut out = String::with_capacity(size);
    out.push_str(&header);
    out.push('\n');
    for row in 0..table.len() {
        for (i, (column, fields)) in table.columns().iter().zip(&rendered).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fields[slot(column.codes()[row])]);
        }
        out.push('\n');
    }
    out
}

/// Quote a field if it contains a comma, a double quote, or a line break
/// (all three would otherwise corrupt the record structure on re-parse).
fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// One field of a record: its unescaped content, and whether any part of it
/// was quoted (a lone `""` record is a deliberate empty value, not a blank
/// line).
struct Field<'a> {
    text: Cow<'a, str>,
    quoted: bool,
}

/// Splits CSV text into records in one pass over its bytes. The four bytes
/// it looks for are ASCII, so every slice it cuts falls on a UTF-8 character
/// boundary.
struct Records<'a> {
    text: &'a str,
    /// The byte the next field starts at.
    cursor: usize,
    /// The 1-based physical line of `cursor`.
    line: usize,
}

impl<'a> Records<'a> {
    fn new(text: &'a str) -> Self {
        Records { text, cursor: 0, line: 1 }
    }

    /// Read the next record into `fields` and return the line it starts on,
    /// or `None` at the end of the text. Empty lines are not records.
    fn next_record(&mut self, fields: &mut Vec<Field<'a>>) -> Result<Option<usize>, RelationError> {
        let bytes = self.text.as_bytes();
        while self.cursor < bytes.len() {
            let line = self.line;
            fields.clear();
            loop {
                fields.push(self.field(line)?);
                match bytes.get(self.cursor) {
                    Some(b',') => self.cursor += 1,
                    Some(b'\r') => {
                        self.cursor += 1;
                        if bytes.get(self.cursor) == Some(&b'\n') {
                            self.cursor += 1;
                        }
                        self.line += 1;
                        break;
                    }
                    Some(b'\n') => {
                        self.cursor += 1;
                        self.line += 1;
                        break;
                    }
                    _ => break,
                }
            }
            let empty = matches!(fields.as_slice(), [only] if !only.quoted && only.text.is_empty());
            if !empty {
                return Ok(Some(line));
            }
        }
        Ok(None)
    }

    /// Read one field, leaving `cursor` on its terminator (`,`, a line
    /// break, or the end of the text). An unquoted field, or one quoted
    /// whole with no quote inside, is borrowed from the text.
    fn field(&mut self, record_line: usize) -> Result<Field<'a>, RelationError> {
        let bytes = self.text.as_bytes();
        let start = self.cursor;
        let is_end = |b: Option<&u8>| matches!(b, None | Some(b',' | b'\n' | b'\r'));
        if bytes.get(start) == Some(&b'"') {
            let body = start + 1;
            if let Some(close) = bytes[body..].iter().position(|&b| b == b'"') {
                let close = body + close;
                if is_end(bytes.get(close + 1)) {
                    let content = &self.text[body..close];
                    self.line += content.bytes().filter(|&b| b == b'\n').count();
                    self.cursor = close + 1;
                    return Ok(Field { text: Cow::Borrowed(content), quoted: true });
                }
            }
        } else {
            let end = bytes[start..]
                .iter()
                .position(|&b| matches!(b, b',' | b'\n' | b'\r' | b'"'))
                .map_or(bytes.len(), |end| start + end);
            if bytes.get(end) != Some(&b'"') {
                self.cursor = end;
                return Ok(Field { text: Cow::Borrowed(&self.text[start..end]), quoted: false });
            }
        }
        self.unescaped_field(record_line)
    }

    /// The slow path of [`Records::field`]: a field with escaped quotes,
    /// quotes mid-field, or more than one quoted run, copied out unescaped.
    fn unescaped_field(&mut self, record_line: usize) -> Result<Field<'a>, RelationError> {
        let bytes = self.text.as_bytes();
        let mut text = String::new();
        let mut quoted = false;
        let mut in_quotes = false;
        // Content bytes from `run` up to `i` are pending a copy into `text`.
        let mut run = self.cursor;
        let mut i = self.cursor;
        loop {
            let Some(&b) = bytes.get(i) else {
                if in_quotes {
                    self.cursor = bytes.len();
                    return Err(RelationError::CsvParse {
                        line: record_line,
                        message: "unterminated quoted field".into(),
                    });
                }
                break;
            };
            match b {
                b'"' => {
                    text.push_str(&self.text[run..i]);
                    if in_quotes && bytes.get(i + 1) == Some(&b'"') {
                        text.push('"');
                        i += 1;
                    } else {
                        in_quotes = !in_quotes;
                        quoted = true;
                    }
                    i += 1;
                    run = i;
                }
                b',' | b'\n' | b'\r' if !in_quotes => break,
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        text.push_str(&self.text[run..i]);
        self.cursor = i;
        Ok(Field { text: Cow::Owned(text), quoted })
    }
}

/// Parse CSV text produced by [`to_csv`] back into a table.
///
/// `roles` assigns a [`ColumnRole`] to each header column by name; columns not
/// listed default to [`ColumnRole::NonIdentifying`]. Quoted fields may carry
/// embedded commas, escaped quotes and line breaks; records may be separated
/// by `\n`, `\r\n` or `\r`.
///
/// The table is the one [`Table::insert`] builds from the parsed rows, cell
/// for cell and code for code. Errors rank as if the whole text were split
/// into records first: an unterminated quote anywhere, then a missing
/// header, then a bad header (duplicate names), then the first record of
/// the wrong arity.
pub fn from_csv(text: &str, roles: &[(&str, ColumnRole)]) -> Result<Table, RelationError> {
    let mut records = Records::new(text);
    let table = read_table(&mut records, roles);
    if table.is_err() {
        // An unterminated quote later in the text outranks the error found.
        let mut fields = Vec::new();
        while records.next_record(&mut fields)?.is_some() {}
    }
    table
}

/// The table `records` spell out: the header, then one row per record.
fn read_table<'a>(
    records: &mut Records<'a>,
    roles: &[(&str, ColumnRole)],
) -> Result<Table, RelationError> {
    let mut fields = Vec::new();
    if records.next_record(&mut fields)?.is_none() {
        return Err(RelationError::CsvParse { line: 1, message: "missing header".into() });
    }
    let schema =
        Schema::new(fields.iter().map(|field| header_column(&field.text, roles)).collect())?;
    let arity = schema.arity();
    let mut columns: Vec<ColumnBuilder<'a>> =
        (0..arity).map(|_| ColumnBuilder::default()).collect();
    let mut rows = 0;
    while let Some(line) = records.next_record(&mut fields)? {
        if matches!(fields.as_slice(), [only] if !only.quoted && only.text.trim().is_empty()) {
            // A whitespace-only line is not a tuple; an explicitly quoted
            // empty field (`""`) is.
            continue;
        }
        if fields.len() != arity {
            return Err(RelationError::CsvParse {
                line,
                message: format!("expected {arity} fields, found {}", fields.len()),
            });
        }
        for (column, field) in columns.iter_mut().zip(fields.drain(..)) {
            column.push(field.text);
        }
        rows += 1;
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Table::from_columns(schema, columns, rows))
}

/// The schema column a header field names, with its role from `roles`.
fn header_column(field: &str, roles: &[(&str, ColumnRole)]) -> ColumnDef {
    let name = field.trim();
    let role = roles
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, r)| *r)
        .unwrap_or(ColumnRole::NonIdentifying);
    ColumnDef::new(name, role)
}

/// The char-at-a-time parser [`from_csv`] replaced, kept as the reference
/// the differential tests hold it to: split the whole text into records of
/// owned fields, then insert row by row.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::value::Value;

    /// One parsed record: the 1-based physical line on which it starts, its
    /// fields, and whether any field was explicitly quoted.
    struct Record {
        line: usize,
        fields: Vec<String>,
        quoted: bool,
    }

    /// Split CSV text into records, honouring double-quoted fields. Inside
    /// quotes, commas, escaped quotes (`""`) and line breaks are field
    /// content; outside quotes, `\n`, `\r\n` and `\r` terminate a record.
    /// An unterminated quote at end of input is an error.
    fn parse_records(text: &str) -> Result<Vec<Record>, RelationError> {
        let mut records = Vec::new();
        let mut fields = Vec::new();
        let mut current = String::new();
        let mut in_quotes = false;
        let mut quoted = false;
        let mut line = 1usize;
        let mut record_line = 1usize;
        // True once the current record has any content (a character, a
        // quote or a comma), so a trailing newline does not emit a phantom
        // empty record.
        let mut pending = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        current.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                '"' => {
                    in_quotes = true;
                    quoted = true;
                    pending = true;
                }
                ',' if !in_quotes => {
                    fields.push(std::mem::take(&mut current));
                    pending = true;
                }
                '\r' | '\n' if !in_quotes => {
                    // CRLF (or a stray CR) terminates the record exactly
                    // like LF.
                    if c == '\r' && chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    line += 1;
                    if pending {
                        fields.push(std::mem::take(&mut current));
                        records.push(Record {
                            line: record_line,
                            fields: std::mem::take(&mut fields),
                            quoted,
                        });
                        pending = false;
                        quoted = false;
                    }
                    record_line = line;
                }
                other => {
                    if other == '\n' {
                        line += 1;
                    }
                    current.push(other);
                    pending = true;
                }
            }
        }
        if in_quotes {
            return Err(RelationError::CsvParse {
                line: record_line,
                message: "unterminated quoted field".into(),
            });
        }
        if pending {
            fields.push(current);
            records.push(Record { line: record_line, fields, quoted });
        }
        Ok(records)
    }

    /// [`from_csv`] by way of whole-text records and [`Table::insert`].
    pub(super) fn from_csv(
        text: &str,
        roles: &[(&str, ColumnRole)],
    ) -> Result<Table, RelationError> {
        let records = parse_records(text)?;
        let mut iter = records.into_iter();
        let header = iter
            .next()
            .ok_or(RelationError::CsvParse { line: 1, message: "missing header".into() })?;
        let columns: Vec<ColumnDef> =
            header.fields.iter().map(|name| header_column(name, roles)).collect();
        let schema = Schema::new(columns)?;
        let arity = schema.arity();
        let mut table = Table::new(schema);
        for record in iter {
            if record.fields.len() == 1 && !record.quoted && record.fields[0].trim().is_empty() {
                continue;
            }
            let values: Vec<Value> = record.fields.iter().map(|f| Value::parse(f)).collect();
            if values.len() != arity {
                return Err(RelationError::CsvParse {
                    line: record.line,
                    message: format!("expected {arity} fields, found {}", values.len()),
                });
            }
            table.insert(values)?;
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    /// The value at `row` of the column named `column`.
    fn cell(t: &Table, row: usize, column: &str) -> Value {
        t.value_at(row, t.schema().index_of(column).unwrap()).unwrap().clone()
    }

    fn sample() -> Table {
        let mut t = Table::new(Schema::medical_example());
        t.insert(vec![
            Value::text("111-22-3333"),
            Value::int(34),
            Value::int(53001),
            Value::text("Surgeon"),
            Value::text("428.0"),
            Value::text("Lisinopril"),
        ])
        .unwrap();
        t.insert(vec![
            Value::text("222-33-4444"),
            Value::interval(30, 40),
            Value::int(53002),
            Value::text("Nurse"),
            Value::text("401.9"),
            Value::Null,
        ])
        .unwrap();
        t
    }

    #[test]
    fn to_csv_has_header_and_rows() {
        let csv = to_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "ssn,age,zip_code,doctor,symptom,prescription");
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let original = sample();
        let csv = to_csv(&original);
        let roles = [
            ("ssn", ColumnRole::Identifying),
            ("age", ColumnRole::QuasiNumeric),
            ("zip_code", ColumnRole::QuasiNumeric),
            ("doctor", ColumnRole::QuasiCategorical),
            ("symptom", ColumnRole::QuasiCategorical),
            ("prescription", ColumnRole::QuasiCategorical),
        ];
        let parsed = from_csv(&csv, &roles).unwrap();
        assert_eq!(parsed.len(), original.len());
        assert_eq!(cell(&parsed, 1, "age"), Value::interval(30, 40));
        assert_eq!(cell(&parsed, 1, "prescription"), Value::Null);
        assert_eq!(parsed.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
    }

    #[test]
    fn symptom_codes_stay_text() {
        // ICD-9-like codes such as "428.0" must not be mangled into numbers.
        let csv = to_csv(&sample());
        let parsed = from_csv(&csv, &[]).unwrap();
        assert_eq!(cell(&parsed, 0, "symptom"), Value::text("428.0"));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_csv("", &[]).is_err());
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let text = "a,b\n1,2\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "a,b\n1,2\n\n3,4\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
    }

    /// Adversarial field contents must survive parse → write → parse
    /// losslessly: embedded commas, embedded double quotes, embedded line
    /// breaks (LF and CRLF), and combinations.
    #[test]
    fn quoted_fields_roundtrip_losslessly() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("note", ColumnRole::NonIdentifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for note in [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "\"leading and trailing\"",
            "comma, \"and\" quote",
            "line\nbreak",
            "crlf\r\nbreak",
            "trailing,",
            ",leading",
            "a,\"b\",c",
        ] {
            t.insert(vec![Value::text("x"), Value::text(note)]).unwrap();
        }
        let once = to_csv(&t);
        let parsed = from_csv(&once, &[("id", ColumnRole::Identifying)]).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.column_values("note").unwrap(), t.column_values("note").unwrap());
        // Idempotent: a second round-trip reproduces the same text.
        let twice = to_csv(&parsed);
        assert_eq!(once, twice);
    }

    #[test]
    fn quoted_empty_field_is_a_row_not_a_blank_line() {
        // `""` on its own line is a deliberate empty value in a one-column
        // table; only genuinely blank lines are skipped.
        let text = "note\n\"\"\nx\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 0, "note"), Value::Null);
        assert_eq!(cell(&t, 1, "note"), Value::text("x"));
    }

    #[test]
    fn crlf_record_separators_parse_like_lf() {
        let lf = "a,b\n1,x\n2,y\n";
        let crlf = "a,b\r\n1,x\r\n2,y\r\n";
        let t_lf = from_csv(lf, &[]).unwrap();
        let t_crlf = from_csv(crlf, &[]).unwrap();
        assert_eq!(t_lf.len(), t_crlf.len());
        for column in ["a", "b"] {
            assert_eq!(t_lf.column_values(column).unwrap(), t_crlf.column_values(column).unwrap());
        }
        // Mixed separators in one file also work.
        let mixed = "a,b\r\n1,x\n2,y\r\n";
        assert_eq!(from_csv(mixed, &[]).unwrap().len(), 2);
    }

    #[test]
    fn quoted_header_names_get_their_roles() {
        // A header field that needs quoting (or carries padding) must still
        // match its role entry after unquoting and trimming.
        let text = "\"ssn\", age \n123-45-6789,30\n";
        let t =
            from_csv(text, &[("ssn", ColumnRole::Identifying), ("age", ColumnRole::QuasiNumeric)])
                .unwrap();
        assert_eq!(t.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
        assert_eq!(t.schema().column_by_name("age").unwrap().role, ColumnRole::QuasiNumeric);
    }

    #[test]
    fn header_names_with_commas_and_quotes_roundtrip() {
        let text = "\"a,b\",c\n1,2\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.schema().columns()[0].name, "a,b");
        let once = to_csv(&t);
        assert_eq!(once, text);
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("say \"hi\", twice", ColumnRole::NonIdentifying),
            ColumnDef::new("\"", ColumnRole::NonIdentifying),
        ])
        .unwrap();
        let mut t = Table::new(schema.clone());
        t.insert(vec![Value::text("x"), Value::int(1), Value::text("y,z")]).unwrap();
        let once = to_csv(&t);
        assert_eq!(once.lines().next().unwrap(), "id,\"say \"\"hi\"\", twice\",\"\"\"\"");
        let parsed = from_csv(&once, &[("id", ColumnRole::Identifying)]).unwrap();
        assert_eq!(parsed.schema(), &schema);
        assert_eq!(parsed.value_at(0, 2), Some(&Value::text("y,z")));
        assert_eq!(to_csv(&parsed), once);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let text = "a,b\n1,\"unclosed\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { message, .. } => {
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_error_line_number_survives_multiline_fields() {
        // The record on physical line 2 spans three lines; the bad record
        // starts on physical line 5.
        let text = "a,b\n1,\"x\ny\nz\"\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn integers_render_like_display() {
        let mut t =
            Table::new(Schema::new(vec![ColumnDef::new("n", ColumnRole::QuasiNumeric)]).unwrap());
        let ints = [0, 7, -7, 9, 10, 99, 100, -100, 53_001, i64::MAX, i64::MIN, i64::MIN + 1];
        for v in ints {
            t.insert(vec![Value::int(v)]).unwrap();
        }
        let text = to_csv(&t);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let expected: Vec<String> = ints.iter().map(ToString::to_string).collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn output_is_sized_exactly() {
        let mut t = sample();
        t.insert(vec![
            Value::text("333-44-5555"),
            Value::int(-12),
            Value::int(i64::MIN),
            Value::text("a,\"b\""),
            Value::Null,
            Value::interval(-5, 5),
        ])
        .unwrap();
        let text = to_csv(&t);
        assert_eq!(text.capacity(), text.len());
    }

    /// Same schema, same row count, and the same storage per column:
    /// dictionary order and codes included.
    fn same_layout(a: &Table, b: &Table) -> bool {
        a.schema() == b.schema()
            && a.len() == b.len()
            && a.columns()
                .iter()
                .zip(b.columns())
                .all(|(x, y)| x.dict() == y.dict() && x.codes() == y.codes())
    }

    /// Both parsers on `text`: the same table, or the same error.
    fn agree(text: &str) -> Result<(), String> {
        let roles = [("a", ColumnRole::Identifying), ("b", ColumnRole::QuasiNumeric)];
        match (from_csv(text, &roles), reference::from_csv(text, &roles)) {
            (Ok(fast), Ok(slow)) if same_layout(&fast, &slow) => Ok(()),
            (Err(fast), Err(slow)) if fast == slow => Ok(()),
            (fast, slow) => Err(format!("{text:?}: {fast:?} vs reference {slow:?}")),
        }
    }

    /// Tokens that exercise the lexer (separators, quotes, escapes, every
    /// line break) and the value typing (nulls, integer spellings that parse
    /// to one value, intervals, padding, multi-byte text).
    const TOKENS: &[&str] = &[
        ",", "\"", "\"\"", "\n", "\r", "\r\n", " ", "∅", "+5", "05", "5", "-2", "[1,2)", "[ 1, 2)",
        "é", "a", "b", "x", "0", "7",
    ];

    /// Tokens for one field of a well-formed record: no separator, so most
    /// records keep their arity and the table-building path runs.
    const FIELD_TOKENS: &[&str] =
        &["\"\"", " ", "∅", "+5", "05", "5", "-2", "\"[1,2)\"", "\"[ 1, 2)\"", "é", "a", "b", "7"];

    fn concat(tokens: &[&str], picks: Vec<usize>) -> String {
        picks.into_iter().map(|i| tokens[i]).collect()
    }

    /// A header and rows of `arity` fields each, every line ended by a
    /// random line break.
    fn rows_text(arity: usize, cells: Vec<Vec<usize>>, breaks: Vec<usize>) -> String {
        let mut text = (0..arity).map(|i| format!("c{i}")).collect::<Vec<_>>().join(",");
        for (row, brk) in cells.chunks(arity).zip(breaks.into_iter().cycle()) {
            text.push_str(["\n", "\r\n", "\r"][brk]);
            let fields: Vec<String> =
                row.iter().map(|picks| concat(FIELD_TOKENS, picks.clone())).collect();
            text.push_str(&fields.join(","));
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn parser_matches_the_reference_on_token_strings(
            picks in prop::collection::vec(0..TOKENS.len(), 0..40),
        ) {
            let text = concat(TOKENS, picks);
            prop_assert!(agree(&text).is_ok(), "{}", agree(&text).unwrap_err());
        }

        #[test]
        fn parser_matches_the_reference_on_tables(
            arity in 1usize..4,
            cells in prop::collection::vec(prop::collection::vec(0..FIELD_TOKENS.len(), 0..3), 0..24),
            breaks in prop::collection::vec(0usize..3, 1..4),
        ) {
            let text = rows_text(arity, cells, breaks);
            prop_assert!(agree(&text).is_ok(), "{}", agree(&text).unwrap_err());
        }
    }

    #[test]
    fn parser_matches_the_reference_on_edge_cases() {
        for text in [
            "",
            "\n\n",
            " ",
            "\"\"",
            "a\n \n\"\"\n",
            "a,b\n1,\"x\"\"y\"\n2,\"p\"q\"r\"\n",
            "a,b\n 5 ,+5\n05,5\n∅,\n",
            "a\r\rb\r\n\"[ 1, 2)\"\r[1,2)\r",
            "a,b\n\"multi\nline\",\"x\r\ny\"\nz,w",
            "a,a\n1,2\n",
            "a,b\n1\n\"x",
            "\"unclosed",
        ] {
            agree(text).unwrap();
        }
    }

    fn csv_error(text: &str) -> (usize, String) {
        match from_csv(text, &[]) {
            Err(RelationError::CsvParse { line, message }) => (line, message),
            other => panic!("{text:?}: expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn an_unterminated_quote_outranks_every_other_error() {
        // The line-2 record has the wrong arity, but the text never closes
        // its quote.
        assert_eq!(csv_error("a,b\n1\n\"x"), (3, "unterminated quoted field".into()));
        // A duplicate header name, then an unterminated quote.
        assert_eq!(csv_error("a,a\n1,2\n3,\"x\n4\n"), (3, "unterminated quoted field".into()));
    }

    #[test]
    fn header_errors_rank_before_arity_errors() {
        assert_eq!(csv_error(""), (1, "missing header".into()));
        assert_eq!(csv_error("\n\r\n\r"), (1, "missing header".into()));
        assert_eq!(
            from_csv("a,a\n1\n", &[]).unwrap_err(),
            RelationError::DuplicateColumn("a".into())
        );
    }

    #[test]
    fn the_first_arity_mismatch_is_reported_with_its_line() {
        assert_eq!(csv_error("a,b\n\n1\n2,3,4\n"), (3, "expected 2 fields, found 1".into()));
        assert_eq!(csv_error("a,b\r\r1,2\r2,3,4\r5\r"), (4, "expected 2 fields, found 3".into()));
    }

    #[test]
    fn spellings_of_one_value_share_a_code() {
        let t = from_csv("n,i\n5,∅\n+5,\n05,\"[1,2)\"\n 5 ,\"[ 1, 2)\"\n", &[]).unwrap();
        let n = t.column(0).unwrap();
        assert_eq!(n.dict(), &[Value::int(5)]);
        assert_eq!(n.codes(), &[0, 0, 0, 0]);
        let i = t.column(1).unwrap();
        assert_eq!(i.dict(), &[Value::Null, Value::interval(1, 2)]);
        assert_eq!(i.codes(), &[0, 0, 1, 1]);
    }

    #[test]
    fn interning_into_a_parsed_table_reuses_its_codes() {
        let mut t = from_csv(&to_csv(&sample()), &[]).unwrap();
        for index in 0..t.schema().arity() {
            let column = t.column_mut(index).unwrap();
            let entries = column.dict().to_vec();
            for (code, value) in (0u32..).zip(&entries) {
                assert_eq!(column.intern(value), code, "{value:?}");
            }
            assert_eq!(column.dict(), entries.as_slice(), "interning grew the dictionary");
            // A new value gets the next code, and is found again.
            let fresh = Value::text("not in the table");
            let next = u32::try_from(entries.len()).unwrap();
            assert_eq!(column.intern(&fresh), next);
            assert_eq!(column.intern(&fresh), next);
        }
        // `set_at` with a value already present reuses its code.
        let doctor = t.schema().index_of("doctor").unwrap();
        let before = t.column(doctor).unwrap().dict().len();
        t.set_at(0, doctor, &Value::text("Nurse")).unwrap();
        let column = t.column(doctor).unwrap();
        assert_eq!(column.dict().len(), before);
        assert_eq!(column.codes()[0], column.codes()[1]);
    }
}
