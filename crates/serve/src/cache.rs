//! The daemon's setup cache: one [`NetlistSetup`] per netlist text,
//! shared by every campaign on that text.
//!
//! A campaign's per-netlist setup — parse, preflight, fault collapse,
//! the cone arena and the `implic` prune mask — depends only on the
//! netlist text and the fault-list options, yet the daemon would rebuild
//! it for every request. The cache keys a built setup by the full text
//! plus `collapse` and `dominance`, so a hit is full-text equality, never
//! a bare hash. It holds at most a fixed budget of bytes, evicting the
//! least recently used entries first, and never keeps an entry larger
//! than the whole budget. Only successful builds are cached: a text that
//! fails to parse or to pass the preflight is rebuilt, and refused, each
//! time.

use std::collections::HashMap;
use std::sync::Arc;

use atpg_easy_atpg::NetlistSetup;

use crate::proto::StatsSnapshot;

/// Bytes the daemon's setup cache may hold, by the entries' estimates.
/// A constant, not a [`ServeConfig`](crate::ServeConfig) field: one
/// value is in use. 64 MiB holds every built-in workload's netlists many
/// times over, and a setup larger than it is built for its request and
/// not kept.
pub(crate) const SETUP_CACHE_BYTES: usize = 64 << 20;

/// What a setup is cached under: the netlist text and the fault-list
/// options the setup depends on.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct SetupKey {
    pub(crate) text: String,
    pub(crate) collapse: bool,
    pub(crate) dominance: bool,
}

struct Entry {
    setup: Arc<NetlistSetup<'static>>,
    bytes: usize,
    /// The cache's clock at the entry's last use.
    used: u64,
}

/// A byte-bounded least-recently-used map from [`SetupKey`] to a shared
/// setup, with the counters the `stats` reply carries.
pub(crate) struct SetupCache {
    budget: usize,
    entries: HashMap<SetupKey, Entry>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetupCache {
    /// An empty cache that holds at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        SetupCache {
            budget,
            entries: HashMap::new(),
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The setup cached under `key`, now the most recently used; counts
    /// a hit or a miss.
    pub(crate) fn get(&mut self, key: &SetupKey) -> Option<Arc<NetlistSetup<'static>>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&entry.setup))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `setup` under `key`, first evicting least recently used
    /// entries until it fits. An entry larger than the whole budget is
    /// not kept, and a key another worker cached meanwhile keeps its
    /// entry.
    pub(crate) fn insert(&mut self, key: SetupKey, setup: Arc<NetlistSetup<'static>>) {
        let bytes = entry_bytes(&key, &setup);
        if bytes > self.budget || self.entries.contains_key(&key) {
            return;
        }
        while self.bytes + bytes > self.budget {
            // A linear scan, as the budget keeps the entries few. Clock
            // values are never reused, so `used` names one entry.
            let Some((used, freed)) = self.entries.values().map(|e| (e.used, e.bytes)).min() else {
                break;
            };
            self.entries.retain(|_, e| e.used != used);
            self.bytes -= freed;
            self.evictions += 1;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.insert(
            key,
            Entry {
                setup,
                bytes,
                used: self.clock,
            },
        );
    }

    /// Writes the cache's counters and its current size into `stats`.
    pub(crate) fn fill(&self, stats: &mut StatsSnapshot) {
        stats.cache_hits = self.hits;
        stats.cache_misses = self.misses;
        stats.cache_evictions = self.evictions;
        stats.cache_bytes = self.bytes as u64;
    }
}

/// An entry's size estimate: the key text's capacity, the setup's heap
/// bytes and the map slot.
fn entry_bytes(key: &SetupKey, setup: &NetlistSetup) -> usize {
    key.text.capacity()
        + setup.heap_bytes()
        + std::mem::size_of::<(SetupKey, Entry)>()
        + std::mem::size_of::<NetlistSetup>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_atpg::AtpgConfig;
    use atpg_easy_netlist::parser::bench;

    /// The key and setup of a one-gate netlist whose nets `name` names;
    /// names of one length give entries of one size.
    fn entry(name: &str) -> (SetupKey, Arc<NetlistSetup<'static>>) {
        let text = format!(
            "INPUT({name}1)\nINPUT({name}2)\nOUTPUT({name}3)\n{name}3 = AND({name}1, {name}2)\n"
        );
        let nl = bench::parse(&text).expect("test netlist parses");
        let setup = NetlistSetup::new(nl, &AtpgConfig::default()).expect("test netlist is clean");
        let key = SetupKey {
            text,
            collapse: true,
            dominance: false,
        };
        (key, Arc::new(setup))
    }

    fn key(name: &str) -> SetupKey {
        entry(name).0
    }

    fn stats(cache: &SetupCache) -> StatsSnapshot {
        let mut stats = StatsSnapshot::default();
        cache.fill(&mut stats);
        stats
    }

    #[test]
    fn evicts_the_least_recently_used_entry_first() {
        let (a, setup) = entry("a");
        let size = entry_bytes(&a, &setup);
        let budget = 2 * size + size / 2;
        let mut cache = SetupCache::new(budget);
        cache.insert(a, setup);
        let (b, setup) = entry("b");
        cache.insert(b, setup);
        assert!(cache.get(&key("a")).is_some(), "a is now used after b");
        let (c, setup) = entry("c");
        cache.insert(c, setup);
        assert!(
            cache.get(&key("b")).is_none(),
            "b was the least recently used"
        );
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("c")).is_some());
        let s = stats(&cache);
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (3, 1, 1));
        assert_eq!(s.cache_bytes, 2 * size as u64);
        // Another setup under a cached key leaves the entry as it was.
        let (a, setup) = entry("a");
        cache.insert(a, setup);
        assert_eq!(stats(&cache).cache_bytes, 2 * size as u64);
    }

    #[test]
    fn bytes_stay_within_the_budget_and_evictions_are_counted() {
        let (a, setup) = entry("a");
        let size = entry_bytes(&a, &setup);
        let mut cache = SetupCache::new(3 * size);
        for (i, name) in ["a", "b", "c", "d", "e", "f", "g"].into_iter().enumerate() {
            let (k, setup) = entry(name);
            cache.insert(k, setup);
            let s = stats(&cache);
            assert!(s.cache_bytes <= 3 * size as u64, "{s:?}");
            assert_eq!(s.cache_evictions, i.saturating_sub(2) as u64);
        }
        assert!(cache.get(&key("d")).is_none());
        assert!(cache.get(&key("e")).is_some());
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_not_kept() {
        let (a, setup) = entry("a");
        let size = entry_bytes(&a, &setup);
        let mut cache = SetupCache::new(size - 1);
        cache.insert(a, setup);
        assert!(cache.get(&key("a")).is_none());
        let s = stats(&cache);
        assert_eq!((s.cache_bytes, s.cache_evictions), (0, 0));
    }
}
