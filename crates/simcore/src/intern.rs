//! Interned strings for hot-path identity keys.
//!
//! Template keys (`"lr/gradient"`) are compared, hashed and copied on
//! every offer round — per pending task, per DB lookup, per trace
//! record. Keeping them as `String` meant a heap clone per touch. A
//! [`Sym`] is a `u32` handle into a global, append-only symbol table:
//! copies are free, equality is one integer compare, and the resolved
//! `&'static str` is always available for display and ordering.
//!
//! Determinism note: symbol *ids* depend on interning order, which is
//! not deterministic across runs (the bench harness interns from
//! parallel worker threads). Ids must therefore never influence
//! scheduling decisions or rendered output. That is why [`Ord`] and
//! [`Display`](std::fmt::Display) go through the resolved string — only `Eq`/`Hash` (which
//! are order-insensitive) use the raw id.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

struct Interner {
    ids: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            ids: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// An interned string: a copyable `u32` handle to a `&'static str` in
/// the process-wide symbol table.
///
/// Interned strings are never freed; the table is meant for a bounded
/// vocabulary (stage template keys, scoped DB keys), not arbitrary data.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s`, returning its (process-wide) symbol.
    pub fn new(s: &str) -> Sym {
        if let Some(&id) = interner().read().unwrap().ids.get(s) {
            return Sym(id);
        }
        let mut table = interner().write().unwrap();
        if let Some(&id) = table.ids.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(table.strings.len()).expect("symbol table overflow");
        table.strings.push(leaked);
        table.ids.insert(leaked, id);
        Sym(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().unwrap().strings[self.0 as usize]
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

impl From<Sym> for String {
    fn from(s: Sym) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

// Ordered by string content, not id: ids are interning-order-dependent
// and must never leak into any deterministic ordering.
impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Sym::new("lr/gradient");
        let b = Sym::new("lr/gradient");
        let c = Sym::new("lr/agg");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "lr/gradient");
    }

    #[test]
    fn conversions_and_compares() {
        let s: Sym = "ts/sort".into();
        assert_eq!(s, "ts/sort");
        assert_eq!("ts/sort", s);
        let owned: Sym = String::from("ts/sort").into();
        assert_eq!(s, owned);
        assert_eq!(String::from(s), "ts/sort");
    }

    #[test]
    fn ordering_is_by_content() {
        // intern in reverse lexicographic order: ids and content disagree
        let b = Sym::new("zzz-order-test");
        let a = Sym::new("aaa-order-test");
        assert!(a < b, "Ord must follow string content, not intern order");
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let syms: Vec<Sym> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| Sym::new("race/key")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn debug_quotes_like_str() {
        let s = Sym::new("a/b");
        assert_eq!(format!("{s:?}"), "\"a/b\"");
        assert_eq!(format!("{s}"), "a/b");
    }
}
