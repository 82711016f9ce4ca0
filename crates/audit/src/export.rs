//! JSON-lines export/import of audit trails (experiment artifacts and
//! cross-run fixtures).

use crate::entry::AuditEntry;
use std::io::{self, BufRead, Write};

/// Writes one JSON object per line.
pub fn export_jsonl<W: Write>(entries: &[AuditEntry], mut out: W) -> io::Result<()> {
    for e in entries {
        let line = serde_json::to_string(e).expect("audit entries serialize infallibly");
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Reads entries back from JSON lines; blank lines are skipped.
pub fn import_jsonl<R: BufRead>(input: R) -> io::Result<Vec<AuditEntry>> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let e: AuditEntry = serde_json::from_str(&line).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {err}", i + 1))
        })?;
        out.push(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_roundtrip() {
        let entries = vec![
            AuditEntry::regular(1, "tim", "referral", "treatment", "nurse"),
            AuditEntry::exception(2, "mark", "referral", "registration", "nurse"),
        ];
        let mut buf = Vec::new();
        export_jsonl(&entries, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = import_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn import_skips_blank_lines_and_rejects_garbage() {
        let good = "\n{\"time\":1,\"op\":\"Allow\",\"user\":\"u\",\"data\":\"d\",\"purpose\":\"p\",\"authorized\":\"a\",\"status\":\"Regular\"}\n\n";
        let back = import_jsonl(good.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert!(import_jsonl("not json\n".as_bytes()).is_err());
    }
}
