//! A map kept as a vector of pairs sorted by key.
//!
//! The abstract state's armed-location and freed-site maps hold a
//! handful of entries and are cloned and joined on every CFG edge the
//! fixpoint walks. A sorted vector clones with one allocation (none
//! when empty), iterates in the same ascending key order a `BTreeMap`
//! would, and joins by one linear merge.

/// A map from `K` to `V` stored as `(key, value)` pairs in ascending key
/// order, each key at most once.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct VecMap<K, V>(Vec<(K, V)>);

impl<K: Clone, V: Clone> Clone for VecMap<K, V> {
    fn clone(&self) -> Self {
        VecMap(self.0.clone())
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap(Vec::new())
    }
}

impl<K: Ord + Copy, V: Copy + PartialEq> VecMap<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(key))
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Sets `key` to `value`, replacing any previous value.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        match self.find(&key) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    /// Sets `key` to `value` unless it is already present.
    pub(crate) fn insert_if_absent(&mut self, key: K, value: V) {
        if let Err(i) = self.find(&key) {
            self.0.insert(i, (key, value));
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }

    /// Entries in ascending key order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.0.iter()
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.0.iter().map(|(k, _)| k)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// Joins `other` into `self` in place: a key on both sides takes
    /// `both(mine, theirs)`, a key on one side only takes `one(value)`.
    /// Returns whether any entry was added or changed.
    pub(crate) fn join_with(
        &mut self,
        other: &VecMap<K, V>,
        both: impl Fn(V, V) -> V,
        one: impl Fn(V) -> V,
    ) -> bool {
        let mut changed = false;
        let mut theirs = other.0.iter().peekable();
        let mut one_sided_theirs = false;
        for (k, v) in &mut self.0 {
            while theirs.next_if(|(t, _)| t < k).is_some() {
                one_sided_theirs = true;
            }
            let joined = match theirs.next_if(|(t, _)| t == k) {
                Some((_, w)) => both(*v, *w),
                None => one(*v),
            };
            if joined != *v {
                *v = joined;
                changed = true;
            }
        }
        if one_sided_theirs || theirs.peek().is_some() {
            for &(k, w) in &other.0 {
                self.insert_if_absent(k, one(w));
            }
            changed = true;
        }
        changed
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = &'a (K, V);
    type IntoIter = std::slice::Iter<'a, (K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::VecMap;

    fn map(pairs: &[(u32, bool)]) -> VecMap<u32, bool> {
        let mut m = VecMap::default();
        for &(k, v) in pairs {
            m.insert(k, v);
        }
        m
    }

    #[test]
    fn entries_stay_sorted_and_unique() {
        let mut m = map(&[(5, true), (1, false), (3, true), (1, true)]);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.get(&1), Some(&true));
        m.insert_if_absent(3, false);
        m.insert_if_absent(4, false);
        assert_eq!(m.remove(&5), Some(true));
        assert_eq!(m.remove(&5), None);
        assert_eq!(
            m.iter().copied().collect::<Vec<_>>(),
            vec![(1, true), (3, true), (4, false)]
        );
    }

    #[test]
    fn merge_join_interleaves_one_sided_keys_in_order() {
        let mut a = map(&[(2, true), (4, true), (8, true)]);
        let b = map(&[(1, true), (4, true), (6, true), (8, false), (9, true)]);
        assert!(a.join_with(&b, |x, y| x && y, |_| false));
        assert_eq!(
            a.iter().copied().collect::<Vec<_>>(),
            vec![
                (1, false),
                (2, false),
                (4, true),
                (6, false),
                (8, false),
                (9, false)
            ]
        );
        // Joining the same side again: nothing left to change.
        assert!(!a.join_with(&b, |x, y| x && y, |_| false));
    }
}
