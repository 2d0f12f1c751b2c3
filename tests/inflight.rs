//! The service layer's in-flight tables are indexed by the keys the
//! simulator hands out (request seqs per client, memory request ids), not
//! hashed: the two orders those keys are not guaranteed to keep — a
//! client's requests completing out of order, and service ids interleaved
//! with the loads of trace cores — must behave as they did under a map.

use dr_strange::core::{ClientSpec, ServeKind, ServiceConfig, SimMode, System, SystemConfig};
use dr_strange::trng::{DRange, QuacTrng};
use dr_strange::workloads::{eval_pairs, poisson_service};

#[test]
fn a_later_request_of_one_client_can_complete_first() {
    // Cold buffer: the first word finds nothing and is parked in the RNG
    // queue, which starts a demand episode. A QUAC episode yields 1024
    // bits for the 64 demanded, so its surplus fills the buffer at once,
    // long before the demanded word is ready — and the same client's next
    // requests are buffer hits that overtake it.
    let cfg = SystemConfig::dr_strange(0)
        .with_prefill_buffer(false)
        .with_service(ServiceConfig {
            sessions: true,
            ..ServiceConfig::default()
        });
    let mut sys = System::new(cfg, Vec::new(), Box::new(QuacTrng::new(5))).expect("valid");
    let session = sys.open_session(ClientSpec::manual(8));
    let parked = sys.service_submit(session, 8);
    sys.advance_until(10_000, |s| s.mem().buffer().available_words() >= 3);
    assert_eq!(
        sys.service_completions_pending(),
        0,
        "the demanded word is still being generated"
    );
    let hits = [
        sys.service_submit(session, 16),
        sys.service_submit(session, 8),
    ];
    sys.advance_until(100_000, |s| s.service_completions_pending() == 3);

    let order: Vec<_> = std::iter::from_fn(|| sys.take_service_completion()).collect();
    let seqs: Vec<u64> = order.iter().map(|(_, seq, _)| *seq).collect();
    assert_eq!(seqs, [hits[0], hits[1], parked], "completion order");
    let kinds: Vec<ServeKind> = order.iter().map(|(_, _, served)| served.kind).collect();
    assert_eq!(
        kinds,
        [ServeKind::Buffer, ServeKind::Buffer, ServeKind::Generated]
    );
    let words: Vec<usize> = order
        .iter()
        .map(|(_, _, served)| served.words.len())
        .collect();
    assert_eq!(words, [2, 1, 1]);
    assert!(order[0].2.latency_cycles < order[2].2.latency_cycles);

    let svc = sys.service().expect("service configured");
    assert_eq!(svc.in_flight(), 0);
    assert!(svc.targets_met());
    assert_eq!(svc.stats().requests_completed, 3);
    assert_eq!(svc.stats().words_issued, 4);
    // The table is reusable after draining out of order.
    let again = sys.service_submit(session, 8);
    let served = sys.run_service_request(session, again, 100_000);
    assert_eq!(served.words.len(), 1);
}

#[test]
fn service_ids_interleaved_with_core_loads_match_across_sim_modes() {
    // Two trace cores issue loads and RNG requests between the service
    // clients' words, so the ids the service sees have gaps; both modes
    // must hand every word to the same request.
    let wl = &eval_pairs(5120)[4];
    let service = ServiceConfig {
        capture_values: true,
        ..poisson_service(4, 24, 2048, 120, 17)
    };
    let run = |mode: SimMode| {
        let cfg = SystemConfig::dr_strange(2)
            .with_instruction_target(25_000)
            .with_service(service.clone())
            .with_sim_mode(mode);
        let mut sys = System::new(cfg, wl.traces(), Box::new(DRange::new(3))).expect("valid");
        let res = sys.run();
        let captured = sys
            .service()
            .expect("service configured")
            .captured_words()
            .to_vec();
        (format!("{res:?}"), captured, sys.skipped_cycles())
    };
    let (reference, ref_words, ref_skipped) = run(SimMode::Reference);
    let (fast, fast_words, fast_skipped) = run(SimMode::FastForward);
    assert_eq!(ref_skipped, 0);
    assert!(fast_skipped > 0, "fast-forward must skip something");
    assert_eq!(
        ref_words.len(),
        4 * 120 * 3,
        "every word of every request captured"
    );
    assert_eq!(fast_words, ref_words, "captured words");
    assert_eq!(fast, reference, "RunResult");
}
