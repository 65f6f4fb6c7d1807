//! Plain-thread concurrency stress for the lock-free pieces.

use std::sync::Arc;

use obsv::{
    ContentionTable, Histo, Level, MetricsRegistry, Site, TraceEvent, TraceRing, TrackedMutex,
};

/// With per-thread segments sized to hold every event, nothing is lost:
/// the merged tail carries each writer's full output and the global
/// sequence numbers come back gap-free and strictly increasing.
#[test]
fn trace_ring_loses_nothing_within_segment_capacity() {
    const WRITERS: u64 = 8;
    const EACH: u64 = 512;
    // One segment can absorb every event even if all writers collide on
    // the same thread-ordinal shard.
    let ring = Arc::new(TraceRing::new((WRITERS * EACH) as usize));
    ring.set_enabled(true);
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..EACH {
                    ring.emit(w * EACH + i, || TraceEvent::ForegroundStall {
                        ino: w << 32 | i,
                    });
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ring.emitted(), WRITERS * EACH);
    assert_eq!(ring.dropped(), 0, "no wrap, so no drops");
    let tail = ring.tail((WRITERS * EACH) as usize);
    assert_eq!(
        tail.len(),
        (WRITERS * EACH) as usize,
        "every event retained"
    );
    let mut seen = vec![0u64; WRITERS as usize];
    for (expect, rec) in tail.iter().enumerate() {
        assert_eq!(rec.seq, expect as u64, "merged sequence is gap-free");
        match rec.ev {
            TraceEvent::ForegroundStall { ino } => {
                let w = (ino >> 32) as usize;
                seen[w] += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(seen, vec![EACH; WRITERS as usize], "no writer lost events");
}

/// A tracked mutex hammered from many threads at [`Level::Full`] keeps
/// exact books: the guarded counter, the acquisition count, and the
/// wait-sample/contended invariant all agree after the dust settles.
#[test]
fn tracked_mutex_books_stay_exact_under_contention() {
    const THREADS: u64 = 8;
    const EACH: u64 = 5_000;
    let table = Arc::new(ContentionTable::new(obsv::Clock::new(|| 0)));
    table.set_level(Level::Full);
    let m = Arc::new(TrackedMutex::new(Site::FskitFdtable, 0u64));
    m.attach(&table);
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..EACH {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(*m.lock(), THREADS * EACH);
    let snap = table.snapshot();
    let site = snap.site(Site::FskitFdtable);
    assert_eq!(site.acquisitions, THREADS * EACH + 1);
    assert!(site.contended <= site.acquisitions);
    assert_eq!(
        site.wait.count(),
        site.contended,
        "every contended acquire leaves exactly one wait sample"
    );
    assert_eq!(site.hold.count(), site.acquisitions);
}

#[test]
fn trace_ring_concurrent_writers_stay_consistent() {
    const WRITERS: u64 = 8;
    const EACH: u64 = 5_000;
    let ring = Arc::new(TraceRing::new(64));
    ring.set_enabled(true);
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..EACH {
                    ring.emit(i, || TraceEvent::ForegroundStall { ino: w << 32 | i });
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ring.emitted(), WRITERS * EACH);
    // Whatever survived the churn must decode cleanly and carry payloads a
    // writer actually produced, in strictly increasing global order.
    let tail = ring.tail(64);
    assert!(!tail.is_empty());
    assert!(tail.len() <= 64);
    let mut last_seq = None;
    for rec in &tail {
        if let Some(prev) = last_seq {
            assert!(rec.seq > prev, "tail out of order");
        }
        last_seq = Some(rec.seq);
        assert!(rec.seq < WRITERS * EACH);
        match rec.ev {
            TraceEvent::ForegroundStall { ino } => {
                let (w, i) = (ino >> 32, ino & 0xffff_ffff);
                assert!(w < WRITERS && i < EACH, "torn payload: {ino:#x}");
                assert_eq!(rec.at_ns, i, "at_ns belongs to a different event");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    // Drops are allowed under wrap contention but must be rare relative to
    // the total (they only happen when writers collide on one slot).
    assert!(ring.dropped() < WRITERS * EACH / 10);
}

#[test]
fn trace_ring_reader_races_writers() {
    let ring = Arc::new(TraceRing::new(32));
    ring.set_enabled(true);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (ring, stop) = (ring.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                ring.emit(i, || TraceEvent::JournalCommit {
                    txid: i,
                    log_entries: i % 7,
                });
                i += 1;
            }
        })
    };
    for _ in 0..2_000 {
        for rec in ring.tail(32) {
            match rec.ev {
                TraceEvent::JournalCommit { txid, log_entries } => {
                    assert_eq!(log_entries, txid % 7, "torn read");
                    assert_eq!(rec.at_ns, txid);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn histogram_concurrent_with_snapshots() {
    let h = Arc::new(Histo::new());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 1..=20_000u64 {
                    h.record(i);
                }
            })
        })
        .collect();
    let reader = {
        let (h, stop) = (h.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut last_count = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let s = h.snapshot();
                assert!(s.count() >= last_count, "count went backwards");
                last_count = s.count();
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    reader.join().unwrap();
    let s = h.snapshot();
    assert_eq!(s.count(), 4 * 20_000);
    assert_eq!(s.max(), 20_000);
}

#[test]
fn registry_snapshot_under_concurrent_updates() {
    let reg = Arc::new(MetricsRegistry::new());
    let c = reg.counter("stress_ops");
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let c = c.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            })
        })
        .collect();
    let mut last = 0;
    for _ in 0..100 {
        let v = reg.snapshot().counter("stress_ops");
        assert!(v >= last);
        last = v;
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(reg.snapshot().counter("stress_ops"), 40_000);
}
