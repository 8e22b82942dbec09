//! The versioned `ctbia-metrics-v1` document.
//!
//! A metrics document is a deliberately *flat* JSON object — a schema
//! tag, a cell label, and an ordered list of dotted-key → integer
//! fields — so that it can be read by the workspace's one strict JSON
//! parser ([`crate::json`]; there is no serde) and grepped in CI. The
//! writer is deterministic: same fields in, same bytes out.

use crate::json::{escape_into, parse_object, Value};

/// Schema tag of the metrics document format.
pub const METRICS_SCHEMA: &str = "ctbia-metrics-v1";

/// A flat, versioned metrics document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsDoc {
    /// Human-readable label of the cell (or aggregate) the metrics
    /// describe, e.g. `hist_2k/BIA@L1d`.
    pub label: String,
    /// Ordered `dotted.key` → value pairs. Order is preserved by the
    /// writer and the parser, so round-trips are byte-identical.
    pub fields: Vec<(String, u64)>,
}

impl MetricsDoc {
    /// An empty document for `label`.
    pub fn new(label: impl Into<String>) -> Self {
        MetricsDoc {
            label: label.into(),
            fields: Vec::new(),
        }
    }

    /// Append a field (keys should be unique; the writer does not dedup).
    pub fn push(&mut self, key: impl Into<String>, value: u64) {
        self.fields.push((key.into(), value));
    }

    /// Look up a field by key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Serialize to the canonical `ctbia-metrics-v1` JSON form: one
    /// field a line, escaped by the shared [`crate::json`] writer.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",").unwrap();
        out.push_str("  \"label\": \"");
        escape_into(&mut out, &self.label);
        out.push('"');
        for (key, value) in &self.fields {
            out.push_str(",\n  \"");
            escape_into(&mut out, key);
            write!(out, "\": {value}").unwrap();
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse a document produced by [`MetricsDoc::to_json`] with the
    /// strict [`parse_object`], then check the schema tag, the string
    /// label and that every other field is an integer.
    ///
    /// Returns a description of the first problem on malformed input,
    /// wrong schema tag, or non-integer field values.
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        let obj = parse_object(text)?;
        match obj.get_str("schema") {
            Some(METRICS_SCHEMA) => {}
            Some(schema) => {
                return Err(format!(
                    "schema mismatch: expected {METRICS_SCHEMA:?}, found {schema:?}"
                ))
            }
            None => return Err("missing or non-string \"schema\" field".into()),
        }
        let label = obj
            .get_str("label")
            .ok_or("missing or non-string \"label\" field")?
            .to_string();
        let mut fields = Vec::with_capacity(obj.fields().len().saturating_sub(2));
        for (key, value) in obj.fields() {
            match (key.as_str(), value) {
                ("schema" | "label", _) => {}
                (_, Value::Num(n)) => fields.push((key.clone(), *n)),
                _ => {
                    return Err(format!(
                        "field {key:?}: value is not a non-negative integer"
                    ))
                }
            }
        }
        Ok(MetricsDoc { label, fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsDoc {
        let mut doc = MetricsDoc::new("hist_2k/BIA@L1d");
        doc.push("cycles", 123_456);
        doc.push("phase.compute", 100_000);
        doc.push("phase.dram_stall", 23_456);
        doc.push("l1d.hits", 999);
        doc.push("linearize.lines_skipped", 42);
        doc
    }

    #[test]
    fn round_trips_byte_identically() {
        let doc = sample();
        let json = doc.to_json();
        let parsed = MetricsDoc::parse(&json).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn writer_is_deterministic_and_versioned() {
        let json = sample().to_json();
        assert_eq!(json, sample().to_json());
        assert!(json.starts_with("{\n  \"schema\": \"ctbia-metrics-v1\",\n"));
        assert!(json.contains("\"label\": \"hist_2k/BIA@L1d\""));
        assert!(json.ends_with("\n}\n"));
    }

    #[test]
    fn get_finds_fields() {
        let doc = sample();
        assert_eq!(doc.get("phase.dram_stall"), Some(23_456));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        let bad = sample().to_json().replace("ctbia-metrics-v1", "v999");
        assert!(MetricsDoc::parse(&bad).unwrap_err().contains("schema"));
        assert!(MetricsDoc::parse("not json").is_err());
        assert!(MetricsDoc::parse("{\n  \"label\": \"x\"\n}\n").is_err());
        let nonint = sample().to_json().replace("123456", "12.5");
        assert!(MetricsDoc::parse(&nonint).is_err());
    }

    #[test]
    fn label_escaping_round_trips() {
        let mut doc = MetricsDoc::new("odd \"label\"\\with\nstuff");
        doc.push("cycles", 1);
        let parsed = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed.label, doc.label);
    }

    /// The writer before it shared the JSON escaper, kept as the
    /// reference the bytes must not drift from.
    fn reference_to_json(doc: &MetricsDoc) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = format!(
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"label\": \"{}\"",
            escape(&doc.label)
        );
        for (key, value) in &doc.fields {
            out.push_str(&format!(",\n  \"{}\": {value}", escape(key)));
        }
        out.push_str("\n}\n");
        out
    }

    #[test]
    fn writer_bytes_match_the_reference_and_round_trip() {
        let odd = [
            "",
            "plain",
            "q\"b\\n\nt\tr\r",
            "\u{0}\u{1f}\u{7f}\u{85}",
            "é字😀/:,{}",
        ];
        for label in odd {
            let mut doc = sample();
            doc.label = label.to_string();
            for (i, key) in odd.iter().enumerate() {
                doc.push(format!("k{i}.{key}"), u64::MAX - i as u64);
            }
            let json = doc.to_json();
            assert_eq!(json, reference_to_json(&doc), "label {label:?}");
            assert_eq!(MetricsDoc::parse(&json), Ok(doc));
        }
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let json = sample().to_json();
        let mut bad: Vec<String> = [
            "",
            "{",
            "}",
            "[]",
            "null",
            "{}",
            "\u{0}",
            "{\"schema\": 1, \"label\": \"x\"}",
            "{\"schema\": \"ctbia-metrics-v1\"}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": 7}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": \"x\", \"a\": true}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": \"x\", \"a\": \"1\"}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": \"x\", \"a\": -1}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": \"x\", \"a\": {}}",
            "{\"schema\": \"ctbia-metrics-v1\", \"label\": \"x\", \"a\": 99999999999999999999}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Floats, in every notation.
        for float in ["12.5", "1e5", "1E5", "123456.0"] {
            bad.push(json.replace("123456", float));
        }
        // Duplicate keys: a repeated field, a second label, a second schema.
        let mut dup = sample();
        dup.push("cycles", 7);
        bad.push(dup.to_json());
        bad.push(json.replace("\"cycles\"", "\"label\""));
        bad.push(json.replace("\"cycles\"", "\"schema\""));
        // Every truncation that cuts into the object.
        let close = json.rfind('}').unwrap();
        bad.extend(
            (0..=close)
                .filter_map(|n| json.get(..n))
                .map(str::to_string),
        );
        // Trailing garbage after the object.
        bad.push(format!("{json}x"));
        bad.push(format!("{json}{json}"));
        for text in &bad {
            assert!(MetricsDoc::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn every_single_byte_mutation_parses_or_errors() {
        let json = sample().to_json();
        for at in 0..json.len() {
            for b in [
                b'"', b'\\', b'{', b'}', b',', b':', b'.', b'0', b'x', b' ', 0, 0x7f,
            ] {
                let mut bytes = json.clone().into_bytes();
                bytes[at] = b;
                let text = String::from_utf8(bytes).expect("sample is ASCII");
                if let Ok(doc) = MetricsDoc::parse(&text) {
                    // Whatever is accepted is a well-formed document.
                    assert_eq!(MetricsDoc::parse(&doc.to_json()), Ok(doc));
                }
            }
        }
    }
}
