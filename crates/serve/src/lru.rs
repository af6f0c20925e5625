//! Recency tracking for warm per-kernel eval-cache memos and live state.
//!
//! The server hosts many sessions whose kernels each hold an
//! [`pwu_spapt::EvalCache`], and whose resident sessions keep a live loop
//! and test set between steps; under thousands of mixed sessions those are
//! the dominant heap consumers. This tracker keeps session ids in recency
//! order so the server can shed the *coldest* first when the
//! [`crate::admission::AdmissionPolicy`] cache bounds are exceeded.
//! Shedding either is always safe — both are rebuilt on demand, never
//! state — so eviction can never corrupt a session.

/// Session ids ordered coldest-first.
///
/// A plain vector, not a linked hash map: the resident-session bound keeps
/// this small, and deterministic iteration order matters more than O(1)
/// touch.
#[derive(Debug, Default)]
pub struct CacheLru {
    /// Coldest first, most recently touched last.
    order: Vec<String>,
}

impl CacheLru {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `id` as most recently used.
    pub fn touch(&mut self, id: &str) {
        if let Some(pos) = self.order.iter().position(|x| x == id) {
            let owned = self.order.remove(pos);
            self.order.push(owned);
        } else {
            self.order.push(id.to_string());
        }
    }

    /// Forgets `id` (session killed or suspended).
    pub fn remove(&mut self, id: &str) {
        self.order.retain(|x| x != id);
    }

    /// Tracked ids, coldest first.
    pub fn coldest_first(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// Number of tracked ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_moves_to_back_and_remove_forgets() {
        let mut lru = CacheLru::new();
        lru.touch("a");
        lru.touch("b");
        lru.touch("c");
        lru.touch("a");
        let order: Vec<&str> = lru.coldest_first().collect();
        assert_eq!(order, ["b", "c", "a"]);
        lru.remove("c");
        let order: Vec<&str> = lru.coldest_first().collect();
        assert_eq!(order, ["b", "a"]);
        assert_eq!(lru.len(), 2);
        lru.remove("b");
        lru.remove("a");
        assert!(lru.is_empty());
    }
}
