//! The store-buffer memory model: locations, views, and modelled atomics.
//!
//! State is immutable-functional: every operation returns a new [`Mem`],
//! so the explorer can branch cheaply on each nondeterministic choice.
//! See the crate docs for the model's semantics and unsoundness bounds.

use std::sync::atomic::Ordering;

/// A memory location index (one per modelled atomic).
pub type Loc = usize;

/// A timestamp: index into a location's store history.
pub type Ts = u32;

/// A vector clock over locations: `view[l]` is the oldest store of `l`
/// the owner is still allowed to read.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct View {
    ts: Vec<Ts>,
}

impl View {
    fn bottom(locs: usize) -> Self {
        View { ts: vec![0; locs] }
    }

    fn get(&self, loc: Loc) -> Ts {
        self.ts.get(loc).copied().unwrap_or(0)
    }

    fn bump(&mut self, loc: Loc, to: Ts) {
        if let Some(slot) = self.ts.get_mut(loc) {
            *slot = (*slot).max(to);
        }
    }

    fn join(&mut self, other: &View) {
        for (slot, &o) in self.ts.iter_mut().zip(&other.ts) {
            *slot = (*slot).max(o);
        }
    }
}

/// One store in a location's history.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct StoreMsg {
    value: u64,
    /// The message view: what a reader acquires by reading this store.
    /// `Release` stores carry the writer's full view; `Relaxed` stores
    /// carry only their own timestamp.
    view: View,
}

/// Does this ordering have an acquire component on loads/RMW-reads?
fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

/// Does this ordering have a release component on stores/RMW-writes?
fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// The shared-memory state: per-location store histories plus one view
/// per thread. `SeqCst` is modelled as `AcqRel` (see crate docs).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Mem {
    hist: Vec<Vec<StoreMsg>>,
    views: Vec<View>,
}

impl Mem {
    /// Fresh memory: every location holds one initial store of 0 with a
    /// bottom message view; every thread starts with a bottom view.
    #[must_use]
    pub fn new(locs: usize, threads: usize) -> Self {
        Mem {
            hist: (0..locs)
                .map(|_| {
                    vec![StoreMsg {
                        value: 0,
                        view: View::bottom(locs),
                    }]
                })
                .collect(),
            views: (0..threads).map(|_| View::bottom(locs)).collect(),
        }
    }

    fn locs(&self) -> usize {
        self.hist.len()
    }

    /// The latest value of `loc` — for final checks, diagnostics and the
    /// enabling condition of a thread blocked in the kernel (a futex wait
    /// compares against the current value); no load may return it
    /// unconditionally mid-run.
    #[must_use]
    pub fn latest(&self, loc: Loc) -> u64 {
        self.hist
            .get(loc)
            .and_then(|h| h.last())
            .map_or(0, |s| s.value)
    }

    /// Thread `tid` stores `value` to `loc` with `ord`; returns the
    /// successor memory. Stores are deterministic (they always append).
    #[must_use]
    pub fn store(&self, tid: usize, loc: Loc, value: u64, ord: Ordering) -> Mem {
        let mut next = self.clone();
        let ts = next.hist.get(loc).map_or(0, Vec::len) as Ts;
        if let Some(view) = next.views.get_mut(tid) {
            view.bump(loc, ts);
        }
        let msg_view = if releases(ord) {
            next.views
                .get(tid)
                .cloned()
                .unwrap_or_else(|| View::bottom(self.locs()))
        } else {
            let mut v = View::bottom(self.locs());
            v.bump(loc, ts);
            v
        };
        if let Some(h) = next.hist.get_mut(loc) {
            h.push(StoreMsg {
                value,
                view: msg_view,
            });
        }
        next
    }

    /// Every store of `loc` thread `tid` may read under `ord`: all stores
    /// at or after the thread's view of `loc`. Each choice yields the
    /// value read and the successor memory (view advanced, message view
    /// joined when `ord` acquires).
    #[must_use]
    pub fn loads(&self, tid: usize, loc: Loc, ord: Ordering) -> Vec<(u64, Mem)> {
        let floor = self.views.get(tid).map_or(0, |v| v.get(loc));
        let Some(h) = self.hist.get(loc) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (ts, msg) in h.iter().enumerate().skip(floor as usize) {
            let mut next = self.clone();
            if let Some(view) = next.views.get_mut(tid) {
                view.bump(loc, ts as Ts);
                if acquires(ord) {
                    view.join(&msg.view);
                }
            }
            out.push((msg.value, next));
        }
        out
    }

    /// Read-modify-write: reads the **latest** store (atomicity), applies
    /// `f`, appends the result. Acquire/release components follow `ord`.
    /// Returns the previous value and the successor memory.
    #[must_use]
    pub fn rmw(&self, tid: usize, loc: Loc, f: impl Fn(u64) -> u64, ord: Ordering) -> (u64, Mem) {
        let mut next = self.clone();
        let (old, old_view) = next
            .hist
            .get(loc)
            .and_then(|h| h.last())
            .map_or((0, None), |s| (s.value, Some(s.view.clone())));
        let ts = next.hist.get(loc).map_or(0, Vec::len) as Ts;
        if let Some(view) = next.views.get_mut(tid) {
            view.bump(loc, ts);
            if acquires(ord) {
                if let Some(ov) = &old_view {
                    view.join(ov);
                }
            }
        }
        let msg_view = if releases(ord) {
            next.views
                .get(tid)
                .cloned()
                .unwrap_or_else(|| View::bottom(self.locs()))
        } else {
            let mut v = View::bottom(self.locs());
            v.bump(loc, ts);
            v
        };
        if let Some(h) = next.hist.get_mut(loc) {
            h.push(StoreMsg {
                value: f(old),
                view: msg_view,
            });
        }
        (old, next)
    }
}

/// A modelled `AtomicU64`: a location handle whose methods mirror the
/// `std::sync::atomic` names, so ported protocol code reads like the
/// real thing. Loads return one successor per readable store — the
/// nondeterminism the explorer enumerates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelAtomicU64 {
    loc: Loc,
}

impl ModelAtomicU64 {
    /// Binds the shim to location `loc` of a [`Mem`].
    #[must_use]
    pub fn at(loc: Loc) -> Self {
        ModelAtomicU64 { loc }
    }

    /// The bound location index.
    #[must_use]
    pub fn loc(&self) -> Loc {
        self.loc
    }

    /// Mirrors `AtomicU64::store`.
    #[must_use]
    pub fn store(&self, mem: &Mem, tid: usize, value: u64, ord: Ordering) -> Mem {
        mem.store(tid, self.loc, value, ord)
    }

    /// Mirrors `AtomicU64::load`; one `(value, memory)` per choice.
    #[must_use]
    pub fn load(&self, mem: &Mem, tid: usize, ord: Ordering) -> Vec<(u64, Mem)> {
        mem.loads(tid, self.loc, ord)
    }

    /// Mirrors `AtomicU64::fetch_add`.
    #[must_use]
    pub fn fetch_add(&self, mem: &Mem, tid: usize, delta: u64, ord: Ordering) -> (u64, Mem) {
        mem.rmw(tid, self.loc, |v| v.wrapping_add(delta), ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: Loc = 0;
    const FLAG: Loc = 1;

    /// The message-passing litmus test: writer stores data then flag.
    /// Reader sees flag=1. May it still read data=0?
    fn stale_data_readable(pub_ord: Ordering, obs_ord: Ordering) -> bool {
        let m0 = Mem::new(2, 2);
        let m1 = m0.store(0, DATA, 1, Ordering::Relaxed);
        let m2 = m1.store(0, FLAG, 1, pub_ord);
        for (flag, m3) in m2.loads(1, FLAG, obs_ord) {
            if flag != 1 {
                continue;
            }
            for (data, _) in m3.loads(1, DATA, Ordering::Relaxed) {
                if data == 0 {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn release_acquire_forbids_stale_read() {
        assert!(!stale_data_readable(Ordering::Release, Ordering::Acquire));
    }

    #[test]
    fn relaxed_publish_permits_stale_read() {
        assert!(stale_data_readable(Ordering::Relaxed, Ordering::Acquire));
    }

    #[test]
    fn relaxed_observe_permits_stale_read() {
        assert!(stale_data_readable(Ordering::Release, Ordering::Relaxed));
    }

    #[test]
    fn coherence_is_per_location_monotone() {
        let m0 = Mem::new(1, 2);
        let m1 = m0.store(0, 0, 7, Ordering::Relaxed);
        // Reader advances to the new store…
        let advanced = m1
            .loads(1, 0, Ordering::Relaxed)
            .into_iter()
            .find(|(v, _)| *v == 7)
            .map(|(_, m)| m)
            .expect("new store readable");
        // …and may never go back to the initial value.
        let values: Vec<u64> = advanced
            .loads(1, 0, Ordering::Relaxed)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(values, vec![7]);
    }

    #[test]
    fn own_stores_are_always_visible_to_self() {
        let m0 = Mem::new(1, 1);
        let m1 = m0.store(0, 0, 3, Ordering::Relaxed);
        let values: Vec<u64> = m1
            .loads(0, 0, Ordering::Relaxed)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(values, vec![3], "a thread never reads behind its own write");
    }

    #[test]
    fn rmw_reads_latest_and_publishes() {
        let m0 = Mem::new(2, 2);
        let m1 = m0.store(0, DATA, 5, Ordering::Relaxed);
        let m2 = m1.store(0, FLAG, 1, Ordering::Relaxed);
        let (old, m3) = m2.rmw(1, FLAG, |v| v + 10, Ordering::AcqRel);
        assert_eq!(old, 1, "RMW must read the latest store");
        assert_eq!(m3.latest(FLAG), 11);
        // The AcqRel read joined the latest store's message view; a
        // Relaxed flag store carries only itself, so DATA stays stale-
        // readable — RMW atomicity is about the location, not an extra
        // fence.
        assert!(m3.loads(1, DATA, Ordering::Relaxed).len() == 2);
    }

    #[test]
    fn seqcst_behaves_as_acqrel() {
        assert!(!stale_data_readable(Ordering::SeqCst, Ordering::SeqCst));
    }

    #[test]
    fn model_atomic_shim_mirrors_mem_ops() {
        let a = ModelAtomicU64::at(0);
        let m0 = Mem::new(1, 1);
        let m1 = a.store(&m0, 0, 9, Ordering::Release);
        assert_eq!(m1.latest(a.loc()), 9);
        let (old, m2) = a.fetch_add(&m1, 0, 1, Ordering::AcqRel);
        assert_eq!(old, 9);
        assert_eq!(a.load(&m2, 0, Ordering::Acquire).len(), 1);
    }
}
