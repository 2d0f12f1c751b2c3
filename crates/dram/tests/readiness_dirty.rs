//! Regression test for the channel controller's write-drain gate: the
//! per-tick write-queue readiness rebuild runs only on ticks where a
//! write could be served.

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

/// Regression for the write-drain gate: while reads are being served and
/// the write queue sits below the drain threshold, the per-tick write
/// readiness rebuild must never run — only read rebuilds may.
#[test]
fn write_queue_scans_gated_while_reads_served() {
    let mut c = controller();
    let mut completed = Vec::new();
    for i in 0..12u64 {
        c.try_enqueue(request(i + 1, RequestKind::Read, i * 0x9e37), 0)
            .unwrap();
    }
    // A handful of writes, well below the drain-high threshold.
    for i in 0..4u64 {
        c.try_enqueue(request(100 + i, RequestKind::Write, i * 0x517c), 0)
            .unwrap();
    }
    let mut now = 0u64;
    while c.read_queue_len() > 0 {
        c.tick(now, &mut completed);
        now += 1;
        assert!(now < 1_000_000, "reads must drain");
    }
    assert_eq!(
        c.write_readiness_rebuilds(),
        0,
        "write-queue readiness was rebuilt while reads were being served"
    );
    assert!(
        c.read_readiness_rebuilds() > 0,
        "read service must have rebuilt read readiness"
    );
    // Once the read queue is empty, opportunistic write drain kicks in
    // and the write rebuild counter starts moving.
    let before = now;
    while !c.write_queue().is_empty() {
        c.tick(now, &mut completed);
        now += 1;
        assert!(now < before + 1_000_000, "writes must drain");
    }
    assert!(
        c.write_readiness_rebuilds() > 0,
        "opportunistic write drain must rebuild write readiness"
    );
}
