//! Property tests for the text edge-list readers (`io::read_edge_list` and
//! `io::read_weighted_edge_list`): arbitrary graphs written with arbitrary
//! decoration read back as the builder's graph, through buffers whose fills
//! cut lines at any byte and on pools of 1 and 4 threads; a malformed line
//! is reported with its line number; and arbitrary bytes never panic a
//! read.

use pardec::prelude::*;
use pardec_graph::naive;
use proptest::prelude::*;
use proptest::strategy::Just;
use std::io::{BufRead, BufReader};

fn on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
        .install(f)
}

/// Runs `read` on `text` through `&[u8]` (one fill holding everything) and
/// through `BufReader`s of 1, 7 and 64 bytes, whose fills cut lines at any
/// byte, asserting that all four agree; returns their result.
fn read_every_way<T: PartialEq + std::fmt::Debug>(
    text: &[u8],
    read: impl Fn(&mut dyn BufRead) -> std::io::Result<T>,
) -> Result<T, String> {
    let whole = read(&mut &text[..]).map_err(|e| e.to_string());
    for capacity in [1, 7, 64] {
        let filled = read(&mut BufReader::with_capacity(capacity, text)).map_err(|e| e.to_string());
        assert_eq!(filled, whole, "a {capacity}-byte buffer reads differently");
    }
    whole
}

fn read_plain(mut r: &mut dyn BufRead) -> std::io::Result<CsrGraph> {
    io::read_edge_list(&mut r)
}

fn read_weighted(mut r: &mut dyn BufRead) -> std::io::Result<WeightedGraph> {
    io::read_weighted_edge_list(&mut r)
}

/// One decoration draw: which of the grammar's liberties a written line
/// takes. Every field is a raw draw; `decorate` reads bits out of them.
#[derive(Clone, Copy, Debug)]
struct Decor {
    bits: u64,
    blanks: u64,
}

/// A run of 1–3 blanks (space, tab, `\x0b`, `\x0c`) picked by `draw`.
fn blanks(draw: u64) -> String {
    let pick = |i: u64| [" ", "\t", "\x0b", "\x0c"][(draw >> (2 * i) & 3) as usize];
    (0..1 + draw % 3).map(pick).collect()
}

/// `x` in decimal, with a `+` sign and leading zeros when `draw` says so.
fn number(x: u64, draw: u64) -> String {
    let sign = if draw & 1 == 1 { "+" } else { "" };
    let zeros = "0".repeat((draw >> 1 & 3) as usize);
    format!("{sign}{zeros}{x}")
}

/// Writes `edges` (with an optional weight each) as decorated text, and
/// returns it with the node count a reader must see.
fn decorate(
    edges: &[(NodeId, NodeId, Option<u64>)],
    decor: &[Decor],
    declare: Option<usize>,
) -> (Vec<u8>, usize) {
    let mut text = String::new();
    let mut declared = 0;
    for (i, &(u, v, w)) in edges.iter().enumerate() {
        let Decor { bits, blanks: b } = decor[i % decor.len()];
        let eol = if bits & 1 == 1 { "\r\n" } else { "\n" };
        if bits >> 1 & 7 == 0 {
            text.push_str(&format!("{}{eol}", blanks(b >> 8)));
        }
        if bits >> 4 & 7 == 0 {
            text.push_str(&format!("#{}a comment, nodes{eol}", blanks(b >> 16)));
        }
        if bits >> 7 & 15 == 0 && declare.is_some() {
            // A `nodes N` declaration mid-file, never above the final count.
            let d = declare.unwrap_or(0).min(bits as usize >> 16 & 63);
            declared = declared.max(d);
            text.push_str(&format!("# nodes{}{d}{eol}", blanks(b >> 24)));
        }
        if bits >> 11 & 3 == 0 {
            text.push_str(&blanks(b >> 32));
        }
        text.push_str(&number(u.into(), bits >> 13));
        text.push_str(&blanks(b));
        text.push_str(&number(v.into(), bits >> 16));
        if let Some(w) = w {
            text.push_str(&blanks(b >> 40));
            text.push_str(&number(w, bits >> 19));
        }
        if bits >> 22 & 3 == 0 && w.is_some() {
            // Extra columns after the weight, which both readers ignore.
            text.push_str(&format!(
                "{}extra col{}umns",
                blanks(b >> 48),
                blanks(b >> 56)
            ));
        }
        if bits >> 25 & 3 == 0 {
            text.push_str(&blanks(b >> 4));
        }
        // The last line may end without a newline.
        if i + 1 < edges.len() || bits >> 27 & 1 == 1 {
            text.push_str(eol);
        }
    }
    let max_id = edges.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max();
    let mut head = String::new();
    if let Some(d) = declare {
        head = format!("# nodes {d} edges {}\n", edges.len());
        declared = declared.max(d);
    }
    (
        (head + &text).into_bytes(),
        declared.max(max_id.unwrap_or(0)),
    )
}

fn decor_strategy() -> impl Strategy<Value = Vec<Decor>> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>()).prop_map(|(bits, blanks)| Decor { bits, blanks }),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decorated text reads back as `naive::build_csr` of the pairs written,
    /// and the weighted twin as `WeightedGraph::from_edges` of the triples,
    /// through every buffer size, on pools of 1 and 4 threads.
    #[test]
    fn decorated_edge_lists_read_like_the_builder(
        n in 1usize..60,
        raw in proptest::collection::vec((0u32..60, 0u32..60, any::<u64>()), 0..200),
        decor in decor_strategy(),
        declare in prop_oneof![Just(None), (0usize..90).prop_map(Some)],
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        // Reversed copies, duplicates and self-loops come from the raw
        // draws themselves (independent endpoints modulo a small n).
        let edges: Vec<(NodeId, NodeId, Option<u64>)> = raw
            .iter()
            .map(|&(u, v, w)| {
                let weight = (w % 4 != 0).then_some(w % 1_000);
                (u % n as NodeId, v % n as NodeId, weight)
            })
            .collect();
        let (text, nodes) = decorate(&edges, &decor, declare);
        let pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let triples: Vec<(NodeId, NodeId, u64)> =
            edges.iter().map(|&(u, v, w)| (u, v, w.unwrap_or(1))).collect();

        let plain = on_pool(threads, || read_every_way(&text, read_plain));
        prop_assert_eq!(plain, Ok(naive::build_csr(nodes, &pairs)));
        let weighted = on_pool(threads, || read_every_way(&text, read_weighted));
        prop_assert_eq!(weighted, Ok(WeightedGraph::from_edges(nodes, &triples)));
    }

    /// A malformed line at any position is the error, named by its 1-based
    /// line number, in both readers and through every buffer size.
    #[test]
    fn a_malformed_line_is_reported_with_its_line_number(
        lines in proptest::collection::vec((0u32..50, 0u32..50), 1..80),
        at in any::<usize>(),
        kind in 0usize..8,
        crlf in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let bad = [
            "x 1",
            "7",
            "1 -2",
            "nodes 3",
            "4294967294 0",
            "1\u{a0}2",
            "# nodes 4294967295",
            "2 3x",
        ][kind];
        let at = at % (lines.len() + 1);
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = String::new();
        for (i, (u, v)) in lines.iter().enumerate() {
            if i == at {
                text.push_str(bad);
                text.push_str(eol);
            }
            text.push_str(&format!("{u} {v}{eol}"));
        }
        if at == lines.len() {
            text.push_str(bad);
        }
        let prefix = format!("line {}: ", at + 1);
        for result in [
            on_pool(threads, || read_every_way(text.as_bytes(), read_plain)).map(drop),
            on_pool(threads, || read_every_way(text.as_bytes(), read_weighted)).map(drop),
        ] {
            let err = result.expect_err("a malformed line was accepted");
            prop_assert!(err.starts_with(&prefix), "{err:?} does not start with {prefix:?}");
        }
    }

    /// Arbitrary bytes give both readers `Ok` or `Err`, never a panic. Digit
    /// runs are kept to values that either fit a few MiB of graph or are
    /// rejected outright, so no draw asks for a huge allocation.
    #[test]
    fn arbitrary_bytes_never_panic_a_read(
        noise in proptest::collection::vec(any::<u8>(), 0..600),
        alphabet in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        const FRAGMENTS: [&str; 16] = [
            "0", "17", "+3", "-1", " ", "\t", "\r\n", "\n", "#", "# nodes ", "nodes",
            "4294967295", "4294967296", "18446744073709551616", "\u{a0}", "\u{ff}",
        ];
        const BYTES: &[u8] = b"0123456789 \t\r\n\n\x0b\x0c#+-nodes\xff\xc3\xa0";
        let bytes: Vec<u8> = match alphabet {
            0 => noise.clone(),
            1 => noise.iter().map(|&b| BYTES[b as usize % BYTES.len()]).collect(),
            _ => noise
                .iter()
                .flat_map(|&b| FRAGMENTS[b as usize % FRAGMENTS.len()].bytes())
                .collect(),
        };
        let text = tame_numbers(&bytes);
        let plain = on_pool(threads, || read_every_way(&text, read_plain));
        let weighted = on_pool(threads, || read_every_way(&text, read_weighted));
        if let Ok(g) = plain {
            prop_assert!(g.check_invariants().is_ok());
        }
        drop(weighted);
    }
}

/// Splits every digit run whose value could ask for a large graph (at least
/// 10⁶, and a node count the readers accept) with spaces, so it reads as
/// smaller numbers instead.
fn tame_numbers(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let run = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
        if run == 0 {
            out.push(bytes[i]);
            i += 1;
            continue;
        }
        let digits = &bytes[i..i + run];
        let value = digits.iter().try_fold(0u64, |acc, &d| {
            acc.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        if value.is_some_and(|v| (1_000_000..u64::from(u32::MAX)).contains(&v)) {
            for chunk in digits.chunks(5) {
                out.extend_from_slice(chunk);
                out.push(b' ');
            }
        } else {
            out.extend_from_slice(digits);
        }
        i += run;
    }
    out
}
