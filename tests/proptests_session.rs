//! Property tests for the PDEC2 session snapshot and the serve wire codec:
//! `Session::save` → `Session::load` is the identity on bytes, every strict
//! prefix of a snapshot is an error (never a silently shorter session),
//! snapshots with a version-1, -2 or -3 `ORCL` section still load into
//! the same session, arbitrary `ORCL` bytes never panic a load, a corrupt
//! stored eccentricity or quotient diameter fails the checked load, request
//! encoding round-trips through the frame decoder, and arbitrary bytes
//! never panic the request, response and `STATS` decoders or a snapshot
//! parse.

use pardec::core::session::{SECTION_CLUSTERING, SECTION_ORACLE, SECTION_ORACLE_VERSION};
use pardec::core::wire;
use pardec::graph::io::{save_snapshot_repr, SectionData, Snapshot, SECTION_GRAPH};
use pardec::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Just;

/// One session — road 12×12, CLUSTER at τ = 2, seed 7 — saved in each older
/// `ORCL` layout, with its version: 1 (the full `q × q` `u64` matrix), 2
/// (the packed `u64` upper triangle) and 3 (the packed `u32` upper
/// triangle). `tests/fixtures/README.md` records the commands that wrote
/// them.
const ORCL_FIXTURES: [(u32, &[u8]); 3] = [
    (1, include_bytes!("fixtures/orcl_v1_road12_tau2_seed7.pdec")),
    (2, include_bytes!("fixtures/orcl_v2_road12_tau2_seed7.pdec")),
    (3, include_bytes!("fixtures/orcl_v3_road12_tau2_seed7.pdec")),
];

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (2usize..9, 2usize..9).prop_map(|(r, c)| generators::mesh(r, c)),
        (8usize..60, 1u64..500).prop_map(|(n, s)| generators::gnm(
            n,
            (n * 2).min(n * (n - 1) / 2),
            s
        )),
        (2usize..40).prop_map(generators::path),
    ]
}

fn params(tau: usize, seed: u64, oracle: bool) -> SessionParams {
    let p = SessionParams::new(tau, seed).with_frontier(FrontierStrategy::TopDown);
    if oracle {
        p
    } else {
        p.without_oracle()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → save reproduces the exact bytes, and the reloaded
    /// session answers a distance query identically to the original.
    #[test]
    fn session_snapshot_round_trips(
        g in small_graph(),
        tau in 1usize..6,
        seed in any::<u64>(),
        oracle in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let s = Session::build(g, &params(tau, seed, oracle));
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();

        let loaded = Session::load(&bytes, FrontierStrategy::TopDown).unwrap();
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        prop_assert_eq!(&bytes, &again, "re-saved snapshot differs");

        // The checked path accepts what the fast path accepts.
        let checked = Session::load_checked(&bytes, FrontierStrategy::TopDown).unwrap();
        prop_assert_eq!(
            &s.clustering().assignment,
            &checked.clustering().assignment
        );
        prop_assert_eq!(s.oracle().is_some(), oracle);
        prop_assert_eq!(loaded.oracle(), s.oracle());

        if oracle && n >= 2 {
            let q = [(0 as NodeId, (n - 1) as NodeId)];
            let (a, _) = s.distance(&q).unwrap();
            let (b, _) = loaded.distance(&q).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Every strict prefix of a session snapshot fails to load — a torn
    /// write can never masquerade as a smaller valid session.
    #[test]
    fn session_every_truncation_errors(
        g in (2usize..7, 2usize..7).prop_map(|(r, c)| generators::mesh(r, c)),
        tau in 1usize..4,
        oracle in any::<bool>(),
    ) {
        let s = Session::build(g, &params(tau, 7, oracle));
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        for len in 0..bytes.len() {
            prop_assert!(
                Session::load(&bytes[..len], FrontierStrategy::TopDown).is_err(),
                "prefix of {len}/{} bytes loaded", bytes.len()
            );
        }
    }

    /// The wire request codec is the identity on every batched request.
    #[test]
    fn wire_request_round_trips(
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..50),
        nodes in proptest::collection::vec(0u32..1000, 0..50),
        sources in proptest::collection::vec(0u32..1000, 0..20),
        path in proptest::collection::vec(0u32..26, 0..60)
            .prop_map(|v| v.into_iter().map(|b| (b'a' + b as u8) as char).collect::<String>()),
    ) {
        let reqs = [
            wire::Request::Info,
            wire::Request::Distance(pairs),
            wire::Request::ClusterOf(nodes.clone()),
            wire::Request::Eccentricity(nodes.clone()),
            wire::Request::Nearest { sources, probes: nodes },
            wire::Request::Reload { path },
            wire::Request::Shutdown,
            wire::Request::Stats,
        ];
        for req in reqs {
            let body = wire::encode_request(&req);
            let back = wire::decode_request(&body).expect("decode failed");
            prop_assert_eq!(back, req);
        }
    }

    /// The STATS body codec is the identity on arbitrary snapshots — any
    /// counter values, any opcode set, any latency distribution.
    #[test]
    fn wire_stats_body_round_trips(
        uptime_us in any::<u64>(),
        total_requests in any::<u64>(),
        errors in any::<u64>(),
        bytes_in in any::<u64>(),
        bytes_out in any::<u64>(),
        epoch in any::<u64>(),
        timeouts in any::<u64>(),
        shed in any::<u64>(),
        panics_caught in any::<u64>(),
        reloads_ok in any::<u64>(),
        reloads_rolled_back in any::<u64>(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u64>(), 0..30)),
            0..6,
        ),
    ) {
        let per_op = ops
            .into_iter()
            .map(|(opcode, count, samples)| {
                let mut latency = pardec::obs::Log2Histogram::new();
                for s in samples {
                    latency.record(s);
                }
                wire::OpStats { opcode, count, latency }
            })
            .collect();
        let snap = wire::StatsSnapshot {
            uptime_us,
            total_requests,
            errors,
            bytes_in,
            bytes_out,
            epoch,
            timeouts,
            shed,
            panics_caught,
            reloads_ok,
            reloads_rolled_back,
            per_op,
        };
        let body = wire::encode_stats_body(&snap);
        prop_assert_eq!(wire::decode_stats_body(&body).unwrap(), snap.clone());

        // And through the full response frame: 15-byte header + body.
        let frame = wire::stats_response_frame(&snap);
        let resp = wire::decode_response(&frame).unwrap();
        prop_assert_eq!(resp.status, 0);
        prop_assert_eq!(resp.opcode, wire::OP_STATS);
        prop_assert_eq!(wire::decode_stats_body(&resp.body).unwrap(), snap);
    }
}

/// Golden wire bytes for the OP_STATS surface: the request is the bare
/// opcode, and a handcrafted snapshot encodes to exactly the frame the
/// module docs promise (15-byte response header, 89-byte fixed stats
/// header, 546-byte per-op entries). The expected bytes are derived here
/// by hand, independent of the encoder.
#[test]
fn wire_stats_golden_bytes() {
    assert_eq!(wire::encode_request(&wire::Request::Stats), vec![0x07]);

    let mut latency = pardec::obs::Log2Histogram::new();
    latency.record(0); // bucket 0
    latency.record(5); // bucket 3 (bit length of 5)
    latency.record(1000); // bucket 10
    let snap = wire::StatsSnapshot {
        uptime_us: 7,
        total_requests: 3,
        errors: 1,
        bytes_in: 100,
        bytes_out: 200,
        epoch: 2,
        timeouts: 4,
        shed: 5,
        panics_caught: 6,
        reloads_ok: 1,
        reloads_rolled_back: 9,
        per_op: vec![wire::OpStats {
            opcode: wire::OP_DIST,
            count: 3,
            latency,
        }],
    };

    // Response header: status 0, opcode STATS, zero ledger, strategy 0.
    let mut expect = vec![0u8, wire::OP_STATS];
    expect.extend_from_slice(&[0; 13]);
    // Fixed stats header: the five original counters, then the fault
    // ledger (epoch, timeouts, shed, panics, reloads ok / rolled back).
    for v in [7u64, 3, 1, 100, 200, 2, 4, 5, 6, 1, 9] {
        expect.extend_from_slice(&v.to_le_bytes());
    }
    expect.push(1); // n_ops
                    // The single per-op entry.
    expect.push(wire::OP_DIST);
    for v in [3u64, 3, 1005] {
        expect.extend_from_slice(&v.to_le_bytes());
    }
    expect.push(65); // n_buckets
    let mut buckets = [0u64; 65];
    buckets[0] = 1;
    buckets[3] = 1;
    buckets[10] = 1;
    for b in buckets {
        expect.extend_from_slice(&b.to_le_bytes());
    }
    assert_eq!(expect.len(), 15 + 89 + 546);

    let frame = wire::stats_response_frame(&snap);
    assert_eq!(frame, expect, "STATS frame layout drifted");
    assert_eq!(
        wire::decode_stats_body(&frame[15..]).unwrap(),
        snap,
        "golden frame no longer decodes to its snapshot"
    );
}

/// Live-daemon sibling of `session_every_truncation_errors`: a daemon
/// serving session A is asked to hot-reload **every strict prefix** of
/// snapshot B. Each attempt must be refused with `ERR_RELOAD_FAILED` and
/// rolled back — the daemon keeps answering for A in between — and the
/// final, untruncated B must swap in with an epoch bump.
#[test]
fn live_reload_rejects_every_truncated_snapshot() {
    use std::io::Write as _;

    let a = std::sync::Arc::new(Session::build(
        generators::mesh(4, 4),
        &SessionParams::new(2, 11).with_frontier(FrontierStrategy::TopDown),
    ));
    let b = Session::build(
        generators::mesh(3, 5),
        &SessionParams::new(2, 13)
            .with_frontier(FrontierStrategy::TopDown)
            .without_oracle(),
    );
    let mut b_bytes = Vec::new();
    b.save(&mut b_bytes).unwrap();

    let dir = std::env::temp_dir().join(format!("pardec_prop_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let replacement = dir.join("b.pdec");

    let pool = std::sync::Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = wire::serve_with(
        listener,
        a,
        pool,
        1,
        wire::ServeConfig {
            allow_reload: true,
            ..wire::ServeConfig::default()
        },
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let reload = |stream: &mut std::net::TcpStream, path: String| {
        wire::write_frame(
            stream,
            &wire::encode_request(&wire::Request::Reload { path }),
        )
        .unwrap();
        let body = wire::read_frame(stream).unwrap().unwrap();
        wire::decode_response(&body).unwrap()
    };

    for len in 0..b_bytes.len() {
        let mut f = std::fs::File::create(&replacement).unwrap();
        f.write_all(&b_bytes[..len]).unwrap();
        drop(f);
        let resp = reload(&mut stream, replacement.display().to_string());
        assert_eq!(
            resp.status,
            wire::ERR_RELOAD_FAILED,
            "truncated prefix {len}/{} swapped in",
            b_bytes.len()
        );
        assert_eq!(handle.epoch(), 1, "epoch moved on a rolled-back reload");
    }

    // Daemon still answers for A after the whole gauntlet…
    let resp = wire::roundtrip(&mut stream, &wire::Request::ClusterOf(vec![0, 15])).unwrap();
    assert_eq!(resp.status, 0);

    // …and the intact replacement swaps in with an epoch bump.
    std::fs::write(&replacement, &b_bytes).unwrap();
    let resp = reload(&mut stream, replacement.display().to_string());
    assert_eq!(resp.status, 0, "intact snapshot refused");
    assert_eq!(&resp.body[..], &2u64.to_le_bytes());
    assert_eq!(handle.epoch(), 2);

    let stats = handle.stats();
    assert_eq!(stats.reloads_ok, 1);
    assert_eq!(stats.reloads_rolled_back, b_bytes.len() as u64);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The session the `ORCL` fixtures were saved from, built afresh on the
/// plain backend.
fn fixture_session() -> Session {
    let g = generators::road_network(12, 12, 0.4, 7);
    Session::build(
        g,
        &SessionParams::new(2, 7)
            .with_frontier(FrontierStrategy::TopDown)
            .with_backend(Backend::Plain),
    )
}

/// Index of `bytes`' `ORCL` entry in its section table.
fn oracle_entry(bytes: &[u8]) -> usize {
    Snapshot::parse(bytes)
        .unwrap()
        .sections()
        .iter()
        .position(|e| e.tag == SECTION_ORACLE)
        .expect("snapshot has an ORCL section")
}

/// `bytes` with the version field of its `ORCL` table entry replaced.
fn with_oracle_version(bytes: &[u8], version: u32) -> Vec<u8> {
    // Header: magic (6), table version (4), section count (4); then 24-byte
    // entries `{tag, version, offset, len}`.
    let at = 14 + 24 * oracle_entry(bytes) + 4;
    let mut patched = bytes.to_vec();
    patched[at..at + 4].copy_from_slice(&version.to_le_bytes());
    patched
}

/// What the fast and the checked load path make of `bytes`.
fn load_both(bytes: &[u8]) -> [std::io::Result<Session>; 2] {
    [
        Session::load(bytes, FrontierStrategy::TopDown),
        Session::load_checked(bytes, FrontierStrategy::TopDown),
    ]
}

/// Offset of `bytes`' `ORCL` payload in the file.
fn oracle_offset(bytes: &[u8]) -> usize {
    Snapshot::parse(bytes).unwrap().sections()[oracle_entry(bytes)].offset
}

/// The `ORCL` payload's upper triangle of `q` clusters as `u64`
/// distances, `u64::MAX` for unreachable, whatever its layout: version 1's
/// full matrix and version 2's triangle of 8-byte words, version 3's of
/// 4-byte words, and version 4's of the entry width its header names,
/// after `Δ′_C` and `q` eccentricities.
fn oracle_distances(bytes: &[u8]) -> Vec<u64> {
    let snap = Snapshot::parse(bytes).unwrap();
    let (version, body) = snap.section(SECTION_ORACLE).unwrap();
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let q = word(0) as usize;
    let (start, width) = match version {
        1 | 2 => (8, 8),
        3 => (8, 4),
        _ => (24 + 8 * q, word(8) as usize),
    };
    let words: Vec<u64> = body[start..]
        .chunks_exact(width)
        .map(|b| {
            let mut w = [0u8; 8];
            w[..width].copy_from_slice(b);
            match u64::from_le_bytes(w) {
                d if width < 8 && d == (1 << (8 * width)) - 1 => u64::MAX,
                d => d,
            }
        })
        .collect();
    if version == 1 {
        (0..q)
            .flat_map(|i| words[i * q + i..(i + 1) * q].to_vec())
            .collect()
    } else {
        words
    }
}

/// Both load paths read each older `ORCL` fixture (versions 1 to 3) into
/// the oracle a fresh build computes, answer `DIST`, `ECC` and the diameter
/// bounds identically, and re-save it as the fresh build's (version-4,
/// 2-byte) snapshot. The fixtures' `GRPH` and `CLUS` payloads equal the
/// fresh build's, every older triangle holds the fresh build's distances,
/// and the fresh build's stored `ecc` and `Δ′_C` are the scan of its
/// triangle that a checked load repeats.
#[test]
fn orcl_v1_snapshot_loads_like_a_fresh_build() {
    let fresh = fixture_session();
    let mut fresh_bytes = Vec::new();
    fresh.save(&mut fresh_bytes).unwrap();
    let fresh_snap = Snapshot::parse(&fresh_bytes).unwrap();
    assert_eq!(
        fresh_snap.section(SECTION_ORACLE).unwrap().0,
        SECTION_ORACLE_VERSION
    );
    let oracle = fresh.oracle().unwrap();
    let q = oracle.num_clusters();
    assert_eq!(oracle.entry_bytes(), 2);
    let fresh_distances = oracle_distances(&fresh_bytes);
    assert_eq!(fresh_distances.len(), q * (q + 1) / 2);
    let body = fresh_snap.section(SECTION_ORACLE).unwrap().1;
    assert_eq!(body.len(), 24 + 8 * q + 2 * q * (q + 1) / 2);

    let n = fresh.graph().num_nodes() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    let nodes: Vec<NodeId> = (0..n).collect();
    let (fresh_dist, _) = fresh.distance(&pairs).unwrap();
    let (fresh_ecc, _) = fresh.eccentricity(&nodes).unwrap();
    for (version, fixture) in ORCL_FIXTURES {
        let snap = Snapshot::parse(fixture).unwrap();
        assert_eq!(snap.section(SECTION_ORACLE).unwrap().0, version);
        for tag in [SECTION_GRAPH, SECTION_CLUSTERING] {
            assert_eq!(snap.section(tag), fresh_snap.section(tag), "v{version}");
        }
        assert_eq!(
            oracle_distances(fixture),
            fresh_distances,
            "v{version} entries"
        );

        for loaded in load_both(fixture) {
            let loaded = loaded.unwrap();
            assert_eq!(loaded.graph(), fresh.graph());
            assert_eq!(loaded.clustering(), fresh.clustering());
            assert_eq!(loaded.growth_steps(), fresh.growth_steps());
            assert_eq!(loaded.oracle(), fresh.oracle());
            assert_eq!(loaded.distance(&pairs).unwrap().0, fresh_dist);
            assert_eq!(loaded.eccentricity(&nodes).unwrap().0, fresh_ecc);
            assert_eq!(loaded.diameter(true, None), fresh.diameter(true, None));
            let mut resaved = Vec::new();
            loaded.save(&mut resaved).unwrap();
            assert!(
                resaved == fresh_bytes,
                "re-saved v{version} snapshot differs"
            );
        }
    }
}

/// Every strict prefix of each older `ORCL` fixture fails on both load
/// paths.
#[test]
fn orcl_v1_snapshot_every_truncation_errors() {
    for (version, fixture) in ORCL_FIXTURES {
        for len in 0..fixture.len() {
            assert!(
                load_both(&fixture[..len]).iter().all(Result::is_err),
                "prefix of {len}/{} bytes of the v{version} fixture loaded",
                fixture.len()
            );
        }
    }
}

/// An `ORCL` entry whose version does not match its payload is an error:
/// each of versions 1 to 4 over the other three layouts, and the unknown
/// version 5 over every layout.
#[test]
fn orcl_version_must_match_the_payload() {
    let mut v4 = Vec::new();
    fixture_session().save(&mut v4).unwrap();
    let layouts = [
        ORCL_FIXTURES[0],
        ORCL_FIXTURES[1],
        ORCL_FIXTURES[2],
        (4, &v4[..]),
    ];
    for (layout, bytes) in layouts {
        for version in (1..=5).filter(|&v| v != layout) {
            assert!(
                load_both(&with_oracle_version(bytes, version))
                    .iter()
                    .all(Result::is_err),
                "ORCL version {version} accepted over a payload of layout {layout}"
            );
        }
        // The patch itself is sound: restoring the file's own version loads.
        assert!(load_both(&with_oracle_version(bytes, layout))
            .iter()
            .all(Result::is_ok));
    }
}

/// A finite `u64` word of an older `ORCL` layout that does not fit a `u32`
/// entry (`2³²`, or exactly `u32::MAX`, which would read as unreachable) is
/// an error on both load paths; the word `u64::MAX` loads, as unreachable,
/// and so does a version-3 entry of `u32::MAX`. In version 4 every entry
/// fits its width, and it is the stored `Δ′_C` that must: `u16::MAX` over
/// 2-byte entries, `2³²` and more over any, and any entry width but 2 and
/// 4, fail on both paths.
#[test]
fn orcl_finite_words_must_fit_u32() {
    let fresh = fixture_session();
    let c = fresh.clustering();
    let (u, v) = (c.centers[0], c.centers[1]);
    assert_ne!(fresh.distance(&[(u, v)]).unwrap().0[0], u64::MAX);
    for (version, fixture) in ORCL_FIXTURES {
        // Entry (0, 1) is word 1 of every layout: the second word of row 0.
        let width = if version == 3 { 4 } else { 8 };
        let at = oracle_offset(fixture) + 8 + width;
        let patched = |word: u64| {
            let mut bytes = fixture.to_vec();
            bytes[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
            bytes
        };
        if width == 8 {
            for word in [1u64 << 32, u32::MAX as u64] {
                assert!(
                    load_both(&patched(word)).iter().all(Result::is_err),
                    "v{version} word {word} loaded"
                );
            }
        }
        for loaded in load_both(&patched(u64::MAX)) {
            let (dist, _) = loaded.unwrap().distance(&[(u, v)]).unwrap();
            assert_eq!(
                dist,
                [u64::MAX],
                "v{version}: the sentinel must read as unreachable"
            );
        }
    }
    let mut v4 = Vec::new();
    fresh.save(&mut v4).unwrap();
    let at = oracle_offset(&v4);
    let patched = |field: usize, word: u64| {
        let mut bytes = v4.clone();
        bytes[at + 8 * field..at + 8 * field + 8].copy_from_slice(&word.to_le_bytes());
        bytes
    };
    for (field, word) in [
        (1, 0),
        (1, 3),
        (1, 4),
        (1, 8),
        (1, u64::MAX),
        (2, u16::MAX as u64),
        (2, 1 << 32),
        (2, u64::MAX),
    ] {
        assert!(
            load_both(&patched(field, word)).iter().all(Result::is_err),
            "v4 header word {field} = {word} loaded"
        );
    }
}

/// The eccentricities and `Δ′_C` a version-4 `ORCL` section stores are
/// trusted by the fast load path, as its distances are, and checked by
/// `load_checked` (behind `snapshot info` and `serve --checked`): one
/// flipped `ecc` word, or a flipped `Δ′_C` word that still fits the entry
/// width, loads fast and fails the checked load with an error naming the
/// oracle.
#[test]
fn orcl_v4_stored_eccentricities_and_diameter_are_checked() {
    let fresh = fixture_session();
    let mut v4 = Vec::new();
    fresh.save(&mut v4).unwrap();
    let at = oracle_offset(&v4);
    let q = fresh.oracle().unwrap().num_clusters();
    let flipped = |field: usize| {
        let mut bytes = v4.clone();
        bytes[at + 8 * field] ^= 1;
        bytes
    };
    let diameter = fresh.oracle().unwrap().quotient_diameter();
    // `Δ′_C` (field 2), then the first, a middle and the last `ecc` word.
    for field in [2, 3, 3 + q / 2, 2 + q] {
        let bytes = flipped(field);
        let fast = Session::load(&bytes, FrontierStrategy::TopDown).unwrap();
        if field == 2 {
            let stored = fast.oracle().unwrap().quotient_diameter();
            assert_eq!(stored, diameter ^ 1);
        } else {
            assert_ne!(fast.oracle(), fresh.oracle());
        }
        let err = Session::load_checked(&bytes, FrontierStrategy::TopDown).unwrap_err();
        assert!(err.to_string().contains("oracle"), "field {field}: {err}");
    }
    assert!(load_both(&v4).iter().all(Result::is_ok));
}

/// A small session, with its clustering payload, for the arbitrary-`ORCL`
/// property. Its clusters have radii of at least 2, so an entry next to
/// `u32::MAX` plus a radius overflows a `u32` sum.
fn arbitrary_oracle_base() -> (Session, Vec<u8>) {
    let mpx = SessionAlgo::Mpx { beta: 0.2 };
    let s = Session::build(generators::path(60), &params(1, 3, true).with_algo(mpx));
    assert!(s.clustering().max_radius() >= 2);
    let mut bytes = Vec::new();
    s.save(&mut bytes).unwrap();
    let clus = Snapshot::parse(&bytes)
        .unwrap()
        .section(SECTION_CLUSTERING)
        .unwrap()
        .1
        .to_vec();
    (s, clus)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid snapshot whose `ORCL` body is replaced by arbitrary bytes —
    /// of any length from 0 to twice the layout's, under versions 0–5, with
    /// or without the right cluster count up front, with or without every
    /// byte pushed to `0xFE`/`0xFF` (entries at and next to `u32::MAX`), and
    /// with or without the high half of each 8-byte word cleared so that
    /// older layouts decode; version-4 bodies with an entry-bytes word of
    /// 2, 4 or another value and a `Δ′_C` word that does or does not fit
    /// the width, truncated anywhere (in the header, the eccentricities or
    /// the triangle) — loads or fails on both paths and never panics. A
    /// load that succeeds answers `DIST`, `ECC` and the diameter bounds
    /// without panicking. Up to version 3 both paths agree; a version-4
    /// body that the checked path accepts, the fast path accepts too.
    #[test]
    fn arbitrary_orcl_bytes_never_panic_a_load(
        version in 0u32..6,
        noise in proptest::collection::vec(any::<u8>(), 0..1200),
        exact_len in any::<bool>(),
        len_pick in 0usize..1 << 20,
        right_q in any::<bool>(),
        high_bytes in any::<bool>(),
        small_words in any::<bool>(),
        entry_bytes in prop_oneof![
            Just(2u64),
            Just(4),
            prop_oneof![Just(0u64), Just(3), Just(8), Just(u64::MAX), any::<u64>()],
        ],
        diameter in any::<u64>(),
        fits in any::<bool>(),
    ) {
        // A `Δ′_C` word that fits the entry width half of the time.
        let diameter = match (fits, entry_bytes) {
            (true, 2) => diameter % 65_535,
            (true, 4) => 65_535 + diameter % (u64::from(u32::MAX) - 65_535),
            _ => diameter,
        };
        let (s, clus) = arbitrary_oracle_base();
        let q = s.clustering().num_clusters();
        let entries = match version {
            1 => q * q,
            _ => q * (q + 1) / 2,
        };
        let width = match version {
            1 | 2 => 8,
            4 => (entry_bytes as usize).min(8),
            _ => 4,
        };
        let head = if version == 4 { 24 + 8 * q } else { 8 };
        let expected = head + width * entries;
        let len = if exact_len { expected } else { len_pick % (2 * expected + 1) };
        let mut body: Vec<u8> = noise
            .iter()
            .map(|&b| if high_bytes { b | 0xFE } else { b })
            .chain(std::iter::repeat(0))
            .take(len)
            .collect();
        if right_q && len >= 8 {
            body[..8].copy_from_slice(&(q as u64).to_le_bytes());
        }
        if version == 4 {
            for (k, word) in [entry_bytes, diameter].into_iter().enumerate() {
                let at = 8 + 8 * k;
                let room = len.saturating_sub(at).min(8);
                body[at.min(len)..at.min(len) + room].copy_from_slice(&word.to_le_bytes()[..room]);
            }
        }
        if small_words && width == 8 && len > 8 {
            for word in body[8..].chunks_mut(8) {
                for b in word.iter_mut().skip(4) {
                    *b = 0;
                }
            }
        }
        let sections = [
            SectionData::bytes(SECTION_CLUSTERING, 1, clus),
            SectionData::bytes(SECTION_ORACLE, version, body),
        ];
        let mut bytes = Vec::new();
        save_snapshot_repr(s.graph(), &sections, &mut bytes).unwrap();
        let nodes: Vec<NodeId> = (0..s.graph().num_nodes() as NodeId).collect();
        let [fast, checked] = load_both(&bytes);
        if version == 4 {
            prop_assert!(fast.is_ok() || checked.is_err());
        } else {
            prop_assert_eq!(fast.is_ok(), checked.is_ok());
        }
        for loaded in [fast, checked].into_iter().flatten() {
            loaded.distance(&[(0, nodes.len() as NodeId - 1)]).unwrap();
            loaded.eccentricity(&nodes).unwrap();
            loaded.diameter(true, None);
        }
    }
}

/// One sweep per session: `Session::diameter` on a built session (with and
/// without an oracle), on the loaded copies of the one with an oracle, and
/// `approximate_diameter` on the graph agree field for field — the
/// quotient kernel's ledger included — weighted and not, on both backends.
/// The graphs span two and three sweep chunks, and their cut edges
/// collapse more than twofold, so the sweep's tables fold them.
#[test]
fn session_diameter_matches_approximate_diameter_on_both_backends() {
    let graphs = [
        generators::windowed_preferential_attachment(17_000, 4, 0.05, 11),
        generators::road_network(100, 100, 0.4, 3),
    ];
    for g in &graphs {
        for backend in [Backend::Plain, Backend::Compressed] {
            let params = SessionParams::new(2, 5)
                .with_frontier(FrontierStrategy::TopDown)
                .with_backend(backend);
            let built = Session::build(g.clone(), &params);
            let bare = Session::build(g.clone(), &params.clone().without_oracle());
            let mut bytes = Vec::new();
            built.save(&mut bytes).unwrap();
            let [fast, checked] = load_both(&bytes);
            let sessions = [built, bare, fast.unwrap(), checked.unwrap()];
            for weighted in [true, false] {
                let mut dp = DiameterParams::new(2, 5).with_frontier(FrontierStrategy::TopDown);
                dp.weighted = weighted;
                let expected = approximate_diameter(g, &dp);
                assert!(expected.quotient_kernel.combine_ratio() > 2.0);
                for (i, s) in sessions.iter().enumerate() {
                    assert_eq!(
                        s.diameter(weighted, None),
                        expected,
                        "session {i}, {backend}, weighted {weighted}"
                    );
                    let (q, kernel) = s.quotient();
                    assert_eq!(kernel, expected.quotient_kernel);
                    assert_eq!(q.num_edges(), expected.quotient_edges);
                }
            }
        }
    }
}

/// Byte runs the decoders' length and varint fields are most fragile
/// against: zero, one, the 7-bit edges, and the varints of `u64::MAX`,
/// `zigzag(i64::MAX)` and `i64::MAX`.
const HOSTILE: [&[u8]; 8] = [
    &[0x00],
    &[0x01],
    &[0x02],
    &[0x7f],
    &[0x80, 0x01],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
];

/// `noise` as raw bytes (`alphabet` 0), or as the [`HOSTILE`] runs its
/// bytes pick (any other `alphabet`).
fn shaped(noise: &[u8], alphabet: usize) -> Vec<u8> {
    match alphabet {
        0 => noise.to_vec(),
        _ => noise
            .iter()
            .flat_map(|&b| HOSTILE[b as usize % HOSTILE.len()].iter().copied())
            .collect(),
    }
}

/// Snapshot files to corrupt: a 5×5 mesh as a `PDEC1` file and as a
/// session snapshot with every section, and a 4×4 mesh as a compressed
/// graph-only snapshot, whose 16 nodes fill one block, so corrupt records
/// reach the varint checks before any block-index check.
fn snapshot_bases() -> [Vec<u8>; 3] {
    let g = generators::mesh(5, 5);
    let mut pdec1 = Vec::new();
    pardec::graph::io::save_binary(&g, &mut pdec1).unwrap();
    let mut session = Vec::new();
    Session::build(g, &params(2, 7, true))
        .save(&mut session)
        .unwrap();
    let compressed = GraphRepr::Compressed(CcsrGraph::from_csr(&generators::mesh(4, 4)));
    let mut grpc = Vec::new();
    save_snapshot_repr(&compressed, &[], &mut grpc).unwrap();
    [pdec1, session, grpc]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary request bodies decode to `Ok` or `Err`, never a panic, at
    /// a small batch cap and at `MAX_BATCH`. Half the bodies carry counts
    /// that agree with their payload length, so the decoder gets past its
    /// length checks. A decoded request re-encodes to the very body it came
    /// from, holds at most `body.len() / 4` node ids, and no batch above
    /// the cap.
    #[test]
    fn arbitrary_bytes_never_panic_a_request_decode(
        opcode in prop_oneof![(0u32..10).prop_map(|o| o as u8), any::<u8>()],
        fit in any::<bool>(),
        split in any::<u32>(),
        noise in proptest::collection::vec(any::<u8>(), 0..160),
        alphabet in 0usize..2,
        cap in prop_oneof![0u32..6, proptest::strategy::Just(wire::MAX_BATCH)],
    ) {
        let mut payload = shaped(&noise, alphabet);
        let mut body = vec![opcode];
        if fit {
            let ids = payload.len() / 4;
            let (counts, len) = match opcode {
                wire::OP_DIST => (vec![ids / 2], ids / 2 * 8),
                wire::OP_CLUSTER_OF | wire::OP_ECC => (vec![ids], ids * 4),
                wire::OP_NEAREST => {
                    let sources = split as usize % (ids + 1);
                    (vec![sources, ids - sources], ids * 4)
                }
                wire::OP_RELOAD => (vec![payload.len()], payload.len()),
                _ => (Vec::new(), payload.len()),
            };
            payload.truncate(len);
            for c in counts {
                body.extend_from_slice(&(c as u32).to_le_bytes());
            }
        }
        body.extend_from_slice(&payload);
        if let Ok(req) = wire::decode_request_limited(&body, cap) {
            prop_assert_eq!(wire::encode_request(&req), body.clone());
            let cap = cap as usize;
            let (ids, batches) = match &req {
                wire::Request::Distance(pairs) => (2 * pairs.len(), vec![pairs.len()]),
                wire::Request::ClusterOf(nodes) | wire::Request::Eccentricity(nodes) => {
                    (nodes.len(), vec![nodes.len()])
                }
                wire::Request::Nearest { sources, probes } => {
                    (sources.len() + probes.len(), vec![sources.len(), probes.len()])
                }
                _ => (0, Vec::new()),
            };
            prop_assert!(ids <= body.len() / 4, "{ids} ids from {} bytes", body.len());
            prop_assert!(batches.iter().all(|&b| b <= cap), "{batches:?} over cap {cap}");
        }
    }

    /// Any bytes of at least the 15-byte header decode as a response whose
    /// fields are those bytes; shorter ones are an error. Never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_a_response_decode(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        match wire::decode_response(&noise) {
            Ok(r) => {
                prop_assert!(noise.len() >= 15);
                prop_assert_eq!((r.status, r.opcode, r.strategy), (noise[0], noise[1], noise[14]));
                prop_assert_eq!(&r.body[..], &noise[15..]);
            }
            Err(_) => prop_assert!(noise.len() < 15),
        }
    }

    /// Arbitrary `STATS` bodies decode to `Ok` or `Err`, never a panic:
    /// pure noise, or the fixed header and a declared op count followed by
    /// noise, either of any length or of exactly the declared table's, with
    /// or without the right bucket count in each entry. A decoded snapshot
    /// has the declared op count and re-encodes to the very body.
    #[test]
    fn arbitrary_bytes_never_panic_a_stats_decode(
        header in proptest::collection::vec(any::<u8>(), 88..89),
        n_ops in prop_oneof![0u32..4, 0u32..256],
        noise in proptest::collection::vec(any::<u8>(), 0..1800),
        shape in 0usize..3,
        right_buckets in any::<bool>(),
    ) {
        const ENTRY: usize = 26 + pardec::obs::BUCKETS * 8;
        let body: Vec<u8> = match shape {
            0 => noise.clone(),
            1 => header.iter().copied().chain([n_ops as u8]).chain(noise.iter().copied()).collect(),
            _ => {
                let mut table: Vec<u8> = noise
                    .iter()
                    .copied()
                    .chain(std::iter::repeat(0x5a))
                    .take(n_ops as usize * ENTRY)
                    .collect();
                if right_buckets {
                    for entry in table.chunks_mut(ENTRY) {
                        entry[25] = pardec::obs::BUCKETS as u8;
                    }
                }
                header.iter().copied().chain([n_ops as u8]).chain(table).collect()
            }
        };
        if let Ok(s) = wire::decode_stats_body(&body) {
            prop_assert_eq!(s.per_op.len(), body[wire::STATS_HEADER - 1] as usize);
            prop_assert_eq!(wire::encode_stats_body(&s), body);
        }
    }

    /// A valid snapshot — `PDEC1`, a session's `PDEC2`, or a compressed
    /// graph-only `PDEC2` — with noise written over it, cut into it, or
    /// spliced into it at any byte parses to `Ok` or `Err`, never a panic,
    /// and so does `graph_repr` on a parse that succeeds. A parsed table
    /// keeps every section inside the bytes.
    #[test]
    fn arbitrary_bytes_never_panic_a_snapshot_parse(
        base in 0usize..3,
        at in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 0..120),
        alphabet in 0usize..2,
        edit in 0usize..3,
    ) {
        let mut bytes = snapshot_bases()[base].clone();
        let noise = shaped(&noise, alphabet);
        let at = at % (bytes.len() + 1);
        match edit {
            0 => {
                let end = (at + noise.len()).min(bytes.len());
                bytes[at..end].copy_from_slice(&noise[..end - at]);
            }
            1 => {
                bytes.truncate(at);
                bytes.extend_from_slice(&noise);
            }
            _ => {
                bytes.splice(at..at, noise);
            }
        }
        if let Ok(snap) = Snapshot::parse(&bytes) {
            for e in snap.sections() {
                prop_assert!(e.offset + e.len <= bytes.len());
            }
            drop(snap.graph_repr());
        }
    }
}
