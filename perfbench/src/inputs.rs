//! Seeded inputs: the graph families, their text edge list, the query
//! schedule, and an adjacency of the benchmark's own for the untimed checks.
//!
//! The program under test receives only the edge-list bytes and the encoded
//! request frames made here.

use crate::rng::SplitMix64;
use pardec_core::wire::{self, Request};
use std::collections::VecDeque;

/// A graph family and its size.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// A uniformly shuffled Kruskal spanning tree of a `rows × cols` grid,
    /// plus every other grid edge with probability `extra`: connected,
    /// planar, bounded degree and a long diameter, like a road network.
    Road {
        rows: usize,
        cols: usize,
        extra: f64,
    },
    /// Windowed preferential attachment: node `u` attaches `attach` edges to
    /// endpoints drawn from the most recent `1/window_div` of the final
    /// endpoint list. Hubs that keep being drawn stay in the window, giving
    /// a heavy-tailed degree distribution and a small diameter.
    Social {
        n: usize,
        attach: usize,
        window_div: usize,
    },
}

impl Family {
    pub fn nodes(&self) -> usize {
        match *self {
            Family::Road { rows, cols, .. } => rows * cols,
            Family::Social { n, .. } => n,
        }
    }

    /// The same family at about `1/100` of the node count.
    pub fn smoke(&self) -> Family {
        match *self {
            Family::Road { rows, cols, extra } => Family::Road {
                rows: rows / 10,
                cols: cols / 10,
                extra,
            },
            Family::Social {
                n,
                attach,
                window_div,
            } => Family::Social {
                n: n / 100,
                attach,
                window_div,
            },
        }
    }

    /// Undirected edges as `(u, v)` with `u < v`, sorted and distinct.
    pub fn edges(&self, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
        let mut edges = match *self {
            Family::Road { rows, cols, extra } => road(rows, cols, extra, rng),
            Family::Social {
                n,
                attach,
                window_div,
            } => social(n, attach, window_div, rng),
        };
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

fn road(rows: usize, cols: usize, extra: f64, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut grid = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                grid.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                grid.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut parent: Vec<u32> = (0..(rows * cols) as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    let mut edges = Vec::with_capacity(grid.len());
    for (u, v) in grid {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
            edges.push((u, v));
        } else if rng.chance(extra) {
            edges.push((u, v));
        }
    }
    edges
}

fn social(n: usize, attach: usize, window_div: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(n * attach);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    // A clique on the first `attach + 1` nodes seeds the endpoint list.
    for u in 0..=attach as u32 {
        for v in 0..u {
            edges.push((v, u));
            endpoints.extend([u, v]);
        }
    }
    let window = (2 * n * attach / window_div).max(4 * attach);
    for u in attach as u32 + 1..n as u32 {
        let len = endpoints.len();
        let window = window.min(len) as u64;
        for _ in 0..attach {
            let t = endpoints[len - 1 - rng.below(window) as usize];
            edges.push((t.min(u), t.max(u)));
            endpoints.extend([t, u]);
        }
    }
    edges
}

/// The text edge list the program parses: a `# nodes N edges M` header,
/// then one `u<TAB>v` line per edge.
pub fn edge_list_text(n: usize, edges: &[(u32, u32)]) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::with_capacity(16 * edges.len() + 64);
    writeln!(out, "# nodes {n} edges {}", edges.len()).expect("writing to a Vec cannot fail");
    for (u, v) in edges {
        writeln!(out, "{u}\t{v}").expect("writing to a Vec cannot fail");
    }
    out
}

/// The benchmark's own adjacency, built from the generated edges and not
/// from anything the program under test computed.
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Adjacency { offsets, targets }
    }

    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Hop distances from the nearest of `sources` (`u32::MAX` if
    /// unreachable): a plain sequential BFS.
    pub fn bfs(&self, sources: &[u32]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nodes()];
        let mut queue = VecDeque::new();
        for &s in sources {
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let next = dist[u as usize] + 1;
            for &v in &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The best of `sweeps` double-sweep lower bounds on the diameter, each
    /// started from a seeded random node.
    pub fn double_sweep_lower_bound(&self, sweeps: usize, rng: &mut SplitMix64) -> u32 {
        let farthest = |dist: &[u32]| {
            (0..dist.len())
                .filter(|&v| dist[v] != u32::MAX)
                .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)))
                .expect("a BFS reaches at least its source") as u32
        };
        (0..sweeps)
            .map(|_| {
                let start = rng.below(self.nodes() as u64) as u32;
                let a = farthest(&self.bfs(&[start]));
                let from_a = self.bfs(&[a]);
                from_a[farthest(&from_a) as usize]
            })
            .max()
            .unwrap_or(0)
    }
}

/// Queries per lookup frame, and probes per `NEAREST` frame.
const BATCH: usize = 256;
/// Sources per `NEAREST` frame.
const NEAREST_SOURCES: usize = 16;
/// Lookup opcodes the schedule rotates through, in this order: `DIST`,
/// `CLUSTER_OF`, `ECC`. Every run of this many consecutive lookup frames
/// holds one of each.
pub const LOOKUP_ROTATION: usize = 3;

/// One request of the serve schedule.
pub struct Frame {
    pub nearest: bool,
    pub body: Vec<u8>,
}

impl Frame {
    pub fn request(&self) -> Request {
        wire::decode_request(&self.body).expect("the schedule encodes valid requests")
    }
}

/// The seeded serve schedule: `nearest` `NEAREST` frames (16 sources, 256
/// probes) spread evenly among `lookups` lookup frames, which rotate through
/// `DIST`, `CLUSTER_OF` and `ECC` with 256 queries each.
///
/// Source `j` of a `NEAREST` is drawn from the `j`-th sixteenth of the node
/// ids (rows of the road grid, arrival order of the social graph), so the
/// sources are spread over the graph like facilities on a map. A wave's
/// round count then varies little from frame to frame, and the median of a
/// few dozen frames repeats across seeds.
pub fn schedule(n: usize, lookups: usize, nearest: usize, rng: &mut SplitMix64) -> Vec<Frame> {
    let total = lookups + nearest;
    let mut lookup = 0;
    (0..total)
        .map(|i| {
            let is_nearest = (i + 1) * nearest / total > i * nearest / total;
            let mut node =
                |from: usize, to: usize| (from as u64 + rng.below((to - from) as u64)) as u32;
            let req = if is_nearest {
                Request::Nearest {
                    sources: (0..NEAREST_SOURCES)
                        .map(|j| node(j * n / NEAREST_SOURCES, (j + 1) * n / NEAREST_SOURCES))
                        .collect(),
                    probes: (0..BATCH).map(|_| node(0, n)).collect(),
                }
            } else {
                lookup += 1;
                match lookup % LOOKUP_ROTATION {
                    1 => Request::Distance((0..BATCH).map(|_| (node(0, n), node(0, n))).collect()),
                    2 => Request::ClusterOf((0..BATCH).map(|_| node(0, n)).collect()),
                    _ => Request::Eccentricity((0..BATCH).map(|_| node(0, n)).collect()),
                }
            };
            Frame {
                nearest: is_nearest,
                body: wire::encode_request(&req),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected(n: usize, edges: &[(u32, u32)]) -> bool {
        Adjacency::new(n, edges)
            .bfs(&[0])
            .iter()
            .all(|&d| d != u32::MAX)
    }

    #[test]
    fn families_are_connected_simple_and_seeded() {
        for family in [
            Family::Road {
                rows: 30,
                cols: 20,
                extra: 0.4,
            },
            Family::Social {
                n: 2000,
                attach: 8,
                window_div: 40,
            },
        ] {
            let edges = family.edges(&mut SplitMix64::new(3));
            assert!(connected(family.nodes(), &edges), "{family:?}");
            assert!(edges.iter().all(|&(u, v)| u < v));
            assert!(edges.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(edges, family.edges(&mut SplitMix64::new(3)));
            assert_ne!(edges, family.edges(&mut SplitMix64::new(4)));
        }
    }

    #[test]
    fn double_sweep_is_exact_on_a_path() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let adj = Adjacency::new(10, &edges);
        assert_eq!(adj.double_sweep_lower_bound(4, &mut SplitMix64::new(1)), 9);
        assert_eq!(adj.bfs(&[0, 9])[4], 4);
    }

    #[test]
    fn schedule_mix() {
        let frames = schedule(100, 60, 4, &mut SplitMix64::new(5));
        assert_eq!(frames.len(), 64);
        let at: Vec<usize> = (0..64).filter(|&i| frames[i].nearest).collect();
        assert_eq!(at, [15, 31, 47, 63]);
        assert!(frames
            .iter()
            .all(|f| (f.request().opcode() == wire::OP_NEAREST) == f.nearest));
        for f in frames.iter().filter(|f| f.nearest) {
            let Request::Nearest { sources, .. } = f.request() else {
                unreachable!()
            };
            for (j, &s) in sources.iter().enumerate() {
                assert!((j * 100 / 16..(j + 1) * 100 / 16).contains(&(s as usize)));
            }
        }
    }
}
