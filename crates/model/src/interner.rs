//! String interning.
//!
//! System monitoring data is massively repetitive: the same executable
//! names, file paths, and user names appear millions of times. The paper's
//! storage layer deduplicates this data; we do it at the lowest level by
//! interning every string into a dictionary and carrying 4-byte [`Symbol`]s
//! everywhere. Equality tests on attributes become integer compares, and
//! `LIKE` patterns can be evaluated once against the (small) dictionary
//! instead of per-event (see `aiql-storage`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Handle to an interned string. Cheap to copy, hash, and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw dictionary index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One layer of an [`Interner`]: strings in symbol order plus the reverse
/// map. A layer's symbols continue the layers before it.
#[derive(Debug, Clone, Default)]
struct StringLayer {
    strings: Vec<Box<str>>,
    lookup: HashMap<Box<str>, Symbol>,
}

impl StringLayer {
    fn push(&mut self, sym: Symbol, s: &str) {
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
    }
}

/// An append-only string dictionary.
///
/// Interning is idempotent: the same string always maps to the same symbol.
/// The empty string is pre-interned as symbol 0 so that "absent" attributes
/// have a canonical cheap representation.
///
/// The strings live in two `Arc`-shared layers: a frozen base and the tail
/// interned since the last [`Interner::freeze`]. Cloning shares both, and
/// interning into a clone copies only the tail, so a store can hand its
/// dictionary to a read snapshot without copying every string.
#[derive(Debug, Clone)]
pub struct Interner {
    base: Arc<StringLayer>,
    tail: Arc<StringLayer>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// The symbol of the pre-interned empty string.
    pub const EMPTY: Symbol = Symbol(0);

    /// Creates a dictionary containing only the empty string.
    pub fn new() -> Self {
        let mut i = Interner {
            base: Arc::default(),
            tail: Arc::default(),
        };
        i.intern("");
        i
    }

    /// Interns `s`, returning its stable symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let sym = Symbol(self.len() as u32);
        Arc::make_mut(&mut self.tail).push(sym, s);
        sym
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.base
            .lookup
            .get(s)
            .or_else(|| self.tail.lookup.get(s))
            .copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.0 as usize;
        match self.base.strings.get(i) {
            Some(s) => s,
            None => &self.tail.strings[i - self.base.strings.len()],
        }
    }

    /// Number of distinct strings in the dictionary (including `""`).
    pub fn len(&self) -> usize {
        self.base.strings.len() + self.tail.strings.len()
    }

    /// Whether the dictionary holds only the pre-interned empty string.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Folds the tail into the frozen base. The base is copied only when a
    /// clone still shares it; symbols are unchanged.
    pub fn freeze(&mut self) {
        if self.tail.strings.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        let base = Arc::make_mut(&mut self.base);
        // Tail symbols continue the base's, in order.
        for s in &tail.strings {
            base.push(Symbol(base.strings.len() as u32), s);
        }
    }

    /// Iterates over `(symbol, string)` pairs in insertion order.
    ///
    /// This is the scan used to pre-evaluate `LIKE` patterns against the
    /// dictionary: the dictionary is orders of magnitude smaller than the
    /// event table.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.base
            .strings
            .iter()
            .chain(&self.tail.strings)
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_ref()))
    }

    /// Approximate heap footprint in bytes (dictionary side only), used by
    /// storage statistics.
    pub fn heap_bytes(&self) -> usize {
        let strings = self.base.strings.iter().chain(&self.tail.strings);
        strings.map(|s| s.len()).sum::<usize>() * 2
            + self.len() * std::mem::size_of::<Box<str>>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("cmd.exe");
        let b = i.intern("cmd.exe");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "cmd.exe");
    }

    #[test]
    fn empty_string_is_symbol_zero() {
        let mut i = Interner::new();
        assert_eq!(i.intern(""), Interner::EMPTY);
        assert_eq!(i.resolve(Interner::EMPTY), "");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.len(), 3); // "", "a", "b"
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let all: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(all, vec!["", "x", "y"]);
    }

    #[test]
    fn freeze_keeps_symbols_and_clones_stay_pinned() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let pinned = i.clone();
        i.freeze();
        let b = i.intern("b");
        assert_eq!(i.intern("a"), a);
        assert_eq!((i.resolve(a), i.resolve(b)), ("a", "b"));
        assert_eq!(i.get("b"), Some(b));
        let all: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(all, vec!["", "a", "b"]);
        // The clone taken before the freeze never sees later strings.
        assert_eq!(pinned.len(), 2);
        assert!(pinned.get("b").is_none());
        assert_eq!(pinned.resolve(a), "a");
    }
}
