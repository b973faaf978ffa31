//! Query result tables.

use crate::governor::Warning;

use aiql_model::{Interner, Value};

/// A materialized query result: named columns and rows of dynamic values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Column headers (return item aliases or rendered expressions).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// True when the engine truncated intermediate results at its cap.
    pub truncated: bool,
    /// Governor warnings: set when `partial_results` execution hit a
    /// budget and the table holds a prefix of the full answer.
    pub warnings: Vec<Warning>,
}

impl ResultTable {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        ResultTable {
            columns,
            rows: Vec::new(),
            truncated: false,
            warnings: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned ASCII (the web UI's interactive table,
    /// in terminal form), resolving interned strings through `interner`.
    pub fn render(&self, interner: &Interner) -> String {
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        cells.push(self.columns.clone());
        for row in &self.rows {
            cells.push(row.iter().map(|v| v.render(interner)).collect());
        }
        let ncols = self.columns.len().max(1);
        let mut widths = vec![0usize; ncols];
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (r, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
                .collect();
            out.push_str(line.join(" | ").trim_end());
            out.push('\n');
            if r == 0 {
                let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        if self.truncated {
            out.push_str("(truncated)\n");
        }
        for w in &self.warnings {
            out.push_str(&format!("(warning: {w})\n"));
        }
        out
    }

    /// Exports the table as CSV (RFC-4180 quoting), resolving interned
    /// strings through `interner` — the web UI's result-download feature.
    pub fn to_csv(&self, interner: &Interner) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| field(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| field(&v.render(interner))).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Canonical key for a row, used for `distinct` and for order-insensitive
    /// result comparison in tests.
    pub fn row_key(row: &[Value]) -> String {
        let mut key = String::new();
        for v in row {
            key.push_str(&format!("{v:?}\u{1f}"));
        }
        key
    }

    /// Writes `row`'s typed key into `out` (cleared first): one
    /// [`KeyWord`] per value. Two rows have equal typed keys exactly when
    /// their [`ResultTable::row_key`]s are equal, without formatting a
    /// string.
    pub(crate) fn typed_key(row: &[Value], out: &mut Vec<KeyWord>) {
        out.clear();
        out.extend(row.iter().map(|&v| KeyWord::of(v)));
    }

    /// Sorts rows by their canonical keys (test helper for set comparison).
    pub fn normalized(mut self) -> Self {
        self.rows.sort_by_key(|r| Self::row_key(r));
        self
    }
}

/// One value of a typed row key: the variant tag plus the payload's raw
/// bits. Equality follows the `{:?}` rendering [`ResultTable::row_key`]
/// compares: `Int(1)` and `Float(1.0)` differ, `0.0` and `-0.0` differ,
/// and every NaN prints `NaN`, so all NaNs share one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyWord {
    tag: u8,
    bits: u64,
}

/// Hashes the payload bits alone, one word per value: values of different
/// types that share bits collide in the table but never compare equal.
impl std::hash::Hash for KeyWord {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.bits);
    }
}

impl KeyWord {
    pub(crate) fn of(v: Value) -> Self {
        let (tag, bits) = match v {
            Value::Null => (0, 0),
            Value::Int(i) => (1, i as u64),
            Value::Float(x) if x.is_nan() => (2, f64::NAN.to_bits()),
            Value::Float(x) => (2, x.to_bits()),
            Value::Str(s) => (3, u64::from(s.raw())),
            Value::Ip(ip) => (4, u64::from(ip.0)),
            Value::Time(t) => (5, t.0 as u64),
            Value::Bool(b) => (6, u64::from(b)),
        };
        KeyWord { tag, bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut interner = Interner::new();
        let s = interner.intern("powershell.exe");
        let mut t = ResultTable::new(vec!["p".into(), "amt".into()]);
        t.rows.push(vec![Value::Str(s), Value::Float(1234.5)]);
        t.rows
            .push(vec![Value::Str(interner.intern("x")), Value::Int(7)]);
        let text = t.render(&interner);
        assert!(text.contains("powershell.exe"));
        assert!(text.lines().count() >= 4);
        let header = text.lines().next().unwrap();
        assert!(header.contains("p"));
        assert!(header.contains("amt"));
    }

    #[test]
    fn row_keys_distinguish_types() {
        assert_ne!(
            ResultTable::row_key(&[Value::Int(1)]),
            ResultTable::row_key(&[Value::Float(1.0)])
        );
        assert_eq!(
            ResultTable::row_key(&[Value::Int(1), Value::Bool(true)]),
            ResultTable::row_key(&[Value::Int(1), Value::Bool(true)])
        );
    }

    /// Typed-key equality holds exactly when `row_key` equality does, over
    /// random rows drawn from values built to collide: NaNs with different
    /// payloads and signs, `0.0` vs `-0.0`, `Int(1)` vs `Float(1.0)`,
    /// `Null`, and `Str`/`Ip`/`Time` with equal raw bits, in rows of
    /// different lengths.
    #[test]
    fn typed_keys_match_row_keys() {
        use aiql_model::{IpV4, Symbol, Timestamp};
        let pool = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::from_bits(0x7ff0_0000_0000_0001)),
            Value::Float(f64::from_bits(0xfff8_dead_beef_0000)),
            Value::Str(Symbol(1)),
            Value::Ip(IpV4(1)),
            Value::Time(Timestamp(1)),
            Value::Str(Symbol(0)),
            Value::Ip(IpV4(0)),
            Value::Time(Timestamp(0)),
            Value::Bool(false),
            Value::Bool(true),
        ];
        // splitmix64: deterministic, no dependencies.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut row = || -> Vec<Value> { (0..next(3)).map(|_| pool[next(pool.len())]).collect() };
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        let mut equal = 0;
        for _ in 0..20_000 {
            let (a, b) = (row(), row());
            ResultTable::typed_key(&a, &mut ka);
            ResultTable::typed_key(&b, &mut kb);
            let same = ResultTable::row_key(&a) == ResultTable::row_key(&b);
            assert_eq!(ka == kb, same, "{a:?} vs {b:?}");
            equal += usize::from(same);
        }
        // Every pool pair, single-value rows: the collision cases above.
        for &x in &pool {
            for &y in &pool {
                ResultTable::typed_key(&[x], &mut ka);
                ResultTable::typed_key(&[y], &mut kb);
                let same = ResultTable::row_key(&[x]) == ResultTable::row_key(&[y]);
                assert_eq!(ka == kb, same, "{x:?} vs {y:?}");
            }
        }
        assert!(equal > 100, "too few equal pairs drawn: {equal}");
    }

    #[test]
    fn normalized_sorts_rows() {
        let mut t = ResultTable::new(vec!["x".into()]);
        t.rows.push(vec![Value::Int(2)]);
        t.rows.push(vec![Value::Int(1)]);
        let n = t.normalized();
        assert_eq!(n.rows[0][0], Value::Int(1));
    }

    #[test]
    fn csv_export_quotes_correctly() {
        let mut interner = Interner::new();
        let tricky = interner.intern("a,b \"quoted\"");
        let mut t = ResultTable::new(vec!["p".into(), "n".into()]);
        t.rows.push(vec![Value::Str(tricky), Value::Int(7)]);
        let csv = t.to_csv(&interner);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("p,n"));
        assert_eq!(lines.next(), Some("\"a,b \"\"quoted\"\"\",7"));
    }

    #[test]
    fn truncated_flag_rendered() {
        let mut interner = Interner::new();
        interner.intern("x");
        let mut t = ResultTable::new(vec!["c".into()]);
        t.truncated = true;
        assert!(t.render(&interner).contains("truncated"));
    }
}
