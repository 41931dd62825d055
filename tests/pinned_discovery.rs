//! Answers pinned across the cu/discovery/report rewrite of PR 18: the
//! rendered `discovery` block of every catalogue program, and the whole
//! `--static` report of a generated wide program, must hash to the digest
//! recorded at the parent commit (cf1b80f). So must five whole reports
//! across the one-pass report writer of PR 24, recorded at its parent
//! (df901ad), and one long signature run recorded at the parent of PR 26
//! (53662e2). A change that alters any of them on purpose re-records the
//! table from the failing test's output.

mod common;

use common::wide_program;
use discopop::{Analysis, EngineKind};

/// FNV-1a 64 over the rendered bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(program, digest)` at the parent commit; `wide_40` is the whole
/// `--static` report, every other row the `discovery` block alone.
///
/// Eleven rows were re-recorded when a reduction candidate whose running
/// value is read on another line of the loop body stopped counting as one
/// (CG, streamcluster, sort, gzip, dedup, mandelbrot, nbody and the four
/// actor programs): in each, one `Doacross` loop moves a spurious
/// reduction variable to `blocking`, and nothing else in the report moves.
///
/// Thirty-one rows were re-recorded for schema v8, whose `blocking` rows
/// trade `sink_thread`/`source_thread` for `threads` (`null` for the pair
/// (0, 0) alone, runs for the four actor programs and the threaded ones).
/// Diffed first against the parent CLI's reports over the 119-report
/// matrix: single-threaded reports differ in the version stamp and those
/// keys alone, and multi-threaded ones, unfolded, hold the parent's rows.
/// They were BT `0x123e62c00ba07b21`, CG `0x1e105a77bcf86583`, FT
/// `0x2fce721036c6797a`, IS `0x34f3f46d819fbacc`, LU `0xa0ba25d435c6c350`,
/// MG `0x24987dcfa59ab910`, SP `0x1a66f450b72d5ef7`, c-ray
/// `0x488a8541d6740e60`, kmeans `0x1fb9b7f6004976f6`, md5
/// `0x2e2489aaa33171a7`, streamcluster `0x7b22ba0028353c7c`, tinyjpeg
/// `0xfea1a58e4ac86586`, bodytrack `0x38203e359285b27e`, h264dec
/// `0x4370e3c56b0ced7c`, md5-par `0x78c0a3bece4e1c24`, sort
/// `0xc5848f360054f02d`, sparselu `0xf444f88d8bab7b55`, health
/// `0x99ddc428cb81de9e`, gzip `0x21a1639fec428d75`, bzip2
/// `0xe078fc455dab17a9`, histogram `0xc8b76654aae69310`, libvorbis
/// `0x388249c21a0f4cb6`, dedup `0x7b8327206cbb6c01`, ferret
/// `0x212fcb55825a6df3`, ocean-par `0xfd1685db1bcba9ee`, mandelbrot
/// `0xf3454627ff02c613`, nbody `0xe7a42d9ef6218271`, actor_pipeline
/// `0x091ac9bab83c154d`, actor_fanout `0xec9f8763f09c32c7`, actor_ring
/// `0x68d023c7da31c3a4`, actors_10k `0xfb88538b117e1b97`.
const PINNED: &[(&str, u64)] = &[
    ("BT", 0x8e8b0ed704fe6957),
    ("CG", 0xf2d1f4c2e17c97a5),
    ("EP", 0x2e3ca0da4bbfffb4),
    ("FT", 0x024b4e33f454226e),
    ("IS", 0x4bbd2831362a4ede),
    ("LU", 0xfc1570ef77023b88),
    ("MG", 0xef767c09628d82d6),
    ("SP", 0xc0b6dbba2971ebcf),
    ("c-ray", 0xf5f9ccdb0b9bb690),
    ("kmeans", 0xf8d962933bb50304),
    ("md5", 0x2a1e6c9b2b128999),
    ("ray-rot", 0x1c3b3599f2577bd4),
    ("rgbyuv", 0x0656e6dc3f8fd9b3),
    ("rotate", 0x8ec284b95bdc186a),
    ("rot-cc", 0x0934b1cf5fc0435b),
    ("streamcluster", 0xfa9e70ccd524d3d8),
    ("tinyjpeg", 0x4c0dcd55104fc5d4),
    ("bodytrack", 0xb0cbea9564770fe4),
    ("h264dec", 0xfb62fdbcab4a312c),
    ("c-ray-par", 0x3ccb99118902f51f),
    ("kmeans-par", 0x8e62c2eedc894ca1),
    ("md5-par", 0xd231eda565c2aa8a),
    ("rotate-par", 0x121032432891d1b1),
    ("fib", 0x476bd05cfea2028f),
    ("nqueens", 0x26f58d9ee80722eb),
    ("sort", 0xa43603b723bbc713),
    ("fft-bots", 0x01312d022acf28ff),
    // Re-recorded when sibling calls became fork–join groups (was
    // 0xd26e7493e9c29972); the blocks before and after differ in
    // `SiblingCalls` rows alone — three pairs of `mul1`..`mul3` become
    // one group of lines 45–47.
    ("strassen", 0x9e4b81a529a85698),
    ("sparselu", 0x1c95cc363c2b2253),
    ("health", 0xb58a4d0c28a4bef2),
    ("floorplan", 0x8946909a8b4469ec),
    ("alignment", 0xf2988c76d9f90766),
    ("uts", 0xe701e22721a49f12),
    ("gzip", 0xa571f1148eb1956b),
    ("bzip2", 0x1865fe12d9e8d533),
    ("histogram", 0xf4af5ab79414cf28),
    ("libvorbis", 0x070a5a94a58b9548),
    // Re-recorded with `strassen` (was 0x8dcd5fa0299f2c8b), and again only
    // `SiblingCalls` rows differ — the pair `scale_frame`/`merge_pass`
    // (lines 35, 38) is dropped, since calls between them depend on one of
    // them, and `edge_pass`/`skin_pass` (36–37) stays.
    ("facedetection", 0x969ce013394a277d),
    ("blackscholes", 0x2ef418228b0d8708),
    ("swaptions", 0x2c2091f2fa6328af),
    ("dedup", 0x1aed132ae8eb4bd5),
    ("ferret", 0xf4767b552b8c80f7),
    ("barnes-par", 0x5700b064ceef5b52),
    ("radix-par", 0x176385bee708a0ac),
    ("ocean-par", 0x36ceffcd973230d0),
    ("mandelbrot", 0xe38e2fe045b4786f),
    ("matmul", 0x5797810311672b8b),
    ("pi", 0x657c602696e842c8),
    ("nbody", 0x0532cc48e234bcb1),
    ("primes", 0x11fa9f4bbc92efa3),
    ("dotprod", 0xaca6c6c7e70599fd),
    ("actor_pipeline", 0x296ddbf7b9cac817),
    ("actor_fanout", 0x00573aa837ca57fc),
    ("actor_ring", 0xf3fca1cae4696c7e),
    ("actors_10k", 0xd1a5dd57cc3b2f2e),
    // Re-recorded in PR 21 (was 0x3f5d9e14fb7d63f0). Diffed against the
    // parent's report first: four lines of `profile.summary` change and
    // nothing else — `cycles` 400 → 470, `synthesized_accesses` 2,897 →
    // 3,160, `fallback_reasons.budget` 72 → 0, `dispatches` 2,351 → 1,972 —
    // because a lone thread's plan engagement is no longer cut at slice
    // boundaries. Re-recorded in PR 25 (was 0x02eb94bc693ea702): with the
    // superinstruction peephole gone one line changes, `dispatches`
    // 1,972 → 3,111 — the parent's digest is the parent CLI's report, and
    // the two reports differ in that line only. Re-recorded in PR 26 (was
    // 0x464c8041a218ba2b): a read and a write status now share one shadow
    // slot, and the CLI reports at the parent and after differ in
    // `profiler_bytes` alone, 72,256 → 71,904. Re-recorded with `strassen`
    // (was 0xbfdad81d9f24943a): `discovery.spmd` holds one fork–join group
    // of the 40 calls in `main` where it held 780 pairs, and the rest of
    // the CLI reports before and after is identical. Then (was
    // 0x62930d507805c8ab) the schema went to v7: the version stamp alone.
    // Then (was 0xfccbbb4918d6c714) shadow pages went from 64 word slots to
    // 8: `profiler_bytes` alone, 71,904 → 71,680. Then (was
    // 0xd53fe296582bae17) schema v8: the version stamp, and each
    // dependence row's thread keys written `"threads": null`.
    ("wide_40", 0xe780e9e44e058da6),
];

#[test]
fn discovery_blocks_match_the_digests_taken_before_the_rewrite() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for w in workloads::all() {
        let program = w.program().unwrap();
        let report = Analysis::new()
            .engine(EngineKind::auto_for(&program))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let doc = report.to_doc(&program).to_json();
        let block = doc.get("discovery").expect("discovery block");
        got.push((
            w.name.to_string(),
            fnv1a(block.to_string_pretty().as_bytes()),
        ));
    }

    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(&wide_program(40), "wide_40").unwrap();
    let report = analysis
        .engine_mut(EngineKind::auto_for(compiled.program()))
        .analyze_compiled(&compiled)
        .unwrap();
    assert_eq!(report.discovery.loops.len(), 40);
    // One fork–join group of all 40 calls in `main`.
    assert_eq!(report.discovery.spmd.len(), 1);
    assert_eq!(report.discovery.spmd[0].lines.len(), 40);
    let json = report.to_json_string(compiled.program());
    got.push(("wide_40".to_string(), fnv1a(json.as_bytes())));

    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), 56, "55 catalogue programs and the wide one");
    for ((name, h), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert!(
            name == pinned_name && h == pinned,
            "{name}: digest {h:#018x}, pinned {pinned_name} {pinned:#018x}; measured table:\n{table}"
        );
    }
    assert_eq!(got.len(), PINNED.len(), "measured table:\n{table}");
}

/// Whole reports, `Report::to_json_string` to the byte, recorded at the
/// parent of the one-pass writer (df901ad) — before any code changed.
/// Re-recorded in PR 25, whose reports differ from its parent's in the
/// `profile.summary.dispatches` line alone (one op per dispatch); the
/// digests before were 0xcf003d54efabffc4, 0x4a4e0aa67f01712d,
/// 0x3dcdad8ca11dae5b, 0x9956da7adf99341e and 0x42c1c01adfc402a6.
/// Re-recorded in PR 26, whose reports differ from its parent's in the
/// `profile.profiler_bytes` line alone (one shadow slot per address, read
/// and write status paired); the digests before were 0x3973a8345c0cb2f5,
/// 0x13743fc01c7d04f2, 0xa28d511d88675e18, 0x1c3ea69d3da363db and
/// 0x4ffda0f858d0454e. `actors_10k`, CG and `actor_ring` were re-recorded
/// with the reduction veto (see [`PINNED`]); they were 0x63d58084c041d425,
/// 0x3303c10c770a1384 and 0x70015fe45e79acea. All five were re-recorded
/// for schema v7, whose reports differ from v6's in the version stamp and,
/// on `parallel:2`, in the three reserved zero keys of `profile.parallel`
/// alone; they were 0x64cffef441ca8d96, 0x5d19b3cabda4fc16,
/// 0xefac63e61f8b357b, 0x54b3365c77d1d5be and 0x2ff87f289b79c6dd.
/// Re-recorded when shadow pages went from 64 word slots to 8, whose
/// reports differ from the parent's in `profile.profiler_bytes` alone
/// (`actors_10k` 66,763,288 → 12,997,912); they were 0xce6d2eb4076e4281,
/// 0x087c04c9eafc6389, 0x7fdb7ccb8b0d907a, 0xf0ec86206d416a35 and
/// 0xa286478fa59e1256. Re-recorded for schema v8, whose reports differ from
/// v7's in the version stamp and the folded thread fields alone
/// (`actors_10k`: 14,149,227 → 22,525 bytes, its 50,042 dependences in 48
/// rows); they were 0xb3a9bc1b4133c94b, 0xbef9a95e5c3f8729,
/// 0x78f643a6cb780c2a, 0xb04be49196e0dc13 and 0x7baae973cb1395e7.
/// `actors_10k` re-recorded when `DepKey`'s thread fields grew to 16 bits,
/// whose report differs from the parent's in `profile.profiler_bytes` alone
/// (12,997,912 → 10,245,400: no dependence in the wide map); it was
/// 0xf09151314c21a936.
const PINNED_WHOLE: &[(&str, u64)] = &[
    ("actors_10k", 0x2ba5fda5a7065772),
    ("matmul on parallel:2", 0x70f1db38eca94ea8),
    ("CG", 0x336bafb3580a6163),
    ("fib", 0x4e576064863c99d2),
    ("actor_ring", 0xcf29b0959fe1a328),
];

#[test]
fn whole_reports_match_the_digests_taken_before_the_one_pass_writer() {
    let whole = |name: &str, engine: Option<EngineKind>| {
        let program = workloads::by_name(name).unwrap().program().unwrap();
        let report = Analysis::new()
            .engine(engine.unwrap_or_else(|| EngineKind::auto_for(&program)))
            .analyze_program(&program)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        fnv1a(report.to_json_string(&program).as_bytes())
    };
    // `matmul` is too small to spawn workers, so its `parallel` block is
    // the same on every host.
    let got = [
        ("actors_10k", whole("actors_10k", None)),
        (
            "matmul on parallel:2",
            whole("matmul", Some(EngineKind::parallel(2))),
        ),
        ("CG", whole("CG", None)),
        ("fib", whole("fib", None)),
        ("actor_ring", whole("actor_ring", None)),
    ];
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(got == PINNED_WHOLE, "measured table:\n{table}");
}

/// The whole report of a signature run past
/// `ProfileConfig::ADAPTIVE_SPAWN_THRESHOLD` accesses ([`common::gather`]):
/// on a host with two cores its lone partition moves to a worker mid-run,
/// and the report must not show it. Recorded in PR 26 at its parent
/// (53662e2), before any code changed, as 0xf94f6e99df6296e8; re-recorded
/// after a diff of the two CLI reports showed `profiler_bytes` alone
/// moving, 12,596,152 → 12,592,056 (the paired slot). Re-recorded from
/// 0x5978c56c5fbe0bcf with the reduction veto: the `k` loop's `out`, whose
/// update is read by `s = s + out[j]`, moved from `reduction_vars` to
/// `blocking`, and nothing else. Re-recorded from 0xd8eda0763e206c08 for
/// schema v7: the version stamp alone. Re-recorded from 0x7b5e29c337f24ac9
/// for schema v8: the version stamp and `"threads": null` for each row's
/// thread keys.
const PINNED_GATHER: u64 = 0xf900394975d5260e;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 1.5 M accesses")]
fn a_long_signature_run_matches_its_pinned_digest() {
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(&common::gather(), "gather").unwrap();
    let program = compiled.program();
    assert_eq!(
        EngineKind::auto_for(program),
        EngineKind::signature(EngineKind::AUTO_SIGNATURE_SLOTS)
    );
    let report = analysis
        .engine_mut(EngineKind::auto_for(program))
        .analyze_compiled(&compiled)
        .unwrap();
    assert!(report.profile.skip_stats.total_accesses > 1 << 20);
    let got = fnv1a(report.to_json_string(program).as_bytes());
    assert_eq!(got, PINNED_GATHER, "measured {got:#018x}");
}
