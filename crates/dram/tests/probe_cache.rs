//! Property tests for the channel controller's O(1) next-event probe
//! cache: under random request streams and controller activity, the cached
//! probe must agree with a from-scratch scan — in particular it must
//! **never report an event later than the reference** (a late event would
//! let the fast-forward loop skip over real work; an early one only costs
//! a wasted probe).

use proptest::prelude::*;

use strange_dram::{
    ChannelController, DramAddress, FrFcfs, Geometry, Request, RequestKind, TimingParams,
};

fn controller() -> ChannelController<FrFcfs> {
    let g = Geometry::paper_default();
    ChannelController::new(0, g, TimingParams::ddr3_1600(), FrFcfs::with_cap(g, 16))
}

fn request(id: u64, kind: RequestKind, raw: u64) -> Request {
    let g = Geometry::paper_default();
    Request {
        id,
        core: (raw % 4) as usize,
        kind,
        addr: DramAddress {
            channel: 0,
            rank: (raw % g.ranks as u64) as u32,
            bank: ((raw >> 3) % g.banks as u64) as u32,
            row: ((raw >> 7) % g.rows as u64) as u32,
            col: ((raw >> 19) % g.cols as u64) as u32,
        },
        arrival: 0,
    }
}

/// The cached probe and the reference scan must agree exactly (equality is
/// stronger than the required "never later").
fn assert_probe_consistent(c: &ChannelController<FrFcfs>, now: u64) {
    let cached = c.next_event_at(now);
    let reference = c.next_event_at_uncached(now);
    assert!(
        cached <= reference,
        "cached probe {cached:?} later than reference {reference:?} at {now}"
    );
    assert_eq!(cached, reference, "probe cache stale at {now}");
}

proptest! {
    /// Drive a controller through a random stream of enqueues, ticks,
    /// blockades, RNG-mode preparations, and dead-span skips; the cached
    /// probe must track the reference scan through every mutation.
    #[test]
    fn cached_probe_matches_reference_scan(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), 1u32..96), 1..120),
    ) {
        let mut c = controller();
        let mut now = 0u64;
        let mut next_id = 1u64;
        let mut completed = Vec::new();
        for (op, raw, span) in ops {
            match op {
                // Enqueue a read / write / RNG request (when accepted).
                0..=2 => {
                    let kind = match op {
                        0 => RequestKind::Read,
                        1 => RequestKind::Write,
                        _ => RequestKind::Rng,
                    };
                    if c.can_accept(kind) {
                        c.try_enqueue(request(next_id, kind, raw), now).unwrap();
                        next_id += 1;
                    }
                }
                // Tick a handful of live cycles.
                3 => {
                    for _ in 0..span.min(48) {
                        c.tick(now, &mut completed);
                        now += 1;
                        assert_probe_consistent(&c, now);
                    }
                }
                // An RNG blockade plus mode preparation.
                4 => {
                    let ready = c.prepare_rng_mode(now);
                    c.block_until(ready + span as u64);
                }
                // Skip a dead span, exactly as the fast-forward loop would.
                5 => {
                    let event = c.next_event_at(now).unwrap_or(u64::MAX);
                    if event > now {
                        let to = event.min(now + span as u64);
                        c.skip_to(now, to);
                        now = to;
                    } else {
                        c.tick(now, &mut completed);
                        now += 1;
                    }
                }
                _ => unreachable!(),
            }
            assert_probe_consistent(&c, now);
        }
    }
}
