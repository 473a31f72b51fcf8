//! Input generators: everything a workload feeds the library is made here,
//! from `--seed`, before the clock starts.
//!
//! Self-contained on purpose (no `hcl-bench` dependency): a later edit to
//! `crates/bench` must not be able to move what this benchmark measures.

/// SplitMix64 (Steele, Lea & Flood): the only randomness source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` is far below 2^32 here, so the modulo bias
    /// (< 2^-32) is immaterial.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream for one named purpose of the same seed.
    pub fn fork(&mut self, purpose: u64) -> SplitMix64 {
        SplitMix64(self.next_u64() ^ mix(purpose))
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's zipfian generator (Gray et al., "Quickly generating billion-record
/// synthetic databases"): popularity rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let n = n as f64;
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Analytic probability of popularity rank `r` (0-based).
    #[cfg(test)]
    pub fn mass(&self, r: usize) -> f64 {
        1.0 / ((r + 1) as f64).powf(self.theta) / self.zetan
    }

    pub fn rank(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
            r.min(self.n as usize - 1)
        }
    }
}

fn zeta(n: usize, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Keys are drawn from this space and kept only if the owner filter places
/// them on the wanted rank.
pub const KEY_SPACE: u64 = 1 << 24;
/// Keys per owner set: far above the lease cache's 4096 entries.
pub const SET_SIZE: usize = 65_536;
/// Every stored value is this long.
pub const VALUE_BYTES: usize = 64;

/// The two key sets of a 2-rank world: `remote[i]` is owned by rank 1,
/// `local[i]` by rank 0 (the load generator).
#[derive(Debug, Clone)]
pub struct KeySets {
    pub remote: Vec<u64>,
    pub local: Vec<u64>,
}

/// Draw distinct keys from [`KEY_SPACE`] and sort them by owner until both
/// sets hold [`SET_SIZE`] keys. `owner_of` is the library's own routing
/// (`partition_of` + `server_of`), so the sets stay right if routing changes.
pub fn key_sets(rng: &mut SplitMix64, owner_of: impl Fn(u64) -> u32) -> KeySets {
    let mut seen = vec![0u64; (KEY_SPACE / 64) as usize];
    let mut sets = KeySets {
        remote: Vec::with_capacity(SET_SIZE),
        local: Vec::with_capacity(SET_SIZE),
    };
    while sets.remote.len() < SET_SIZE || sets.local.len() < SET_SIZE {
        let key = rng.next_u64() % KEY_SPACE;
        let (word, bit) = ((key / 64) as usize, 1u64 << (key % 64));
        if seen[word] & bit != 0 {
            continue;
        }
        seen[word] |= bit;
        let set = if owner_of(key) == 0 {
            &mut sets.local
        } else {
            &mut sets.remote
        };
        if set.len() < SET_SIZE {
            set.push(key);
        }
    }
    sets
}

/// The 64-byte value the client writes for `key` as its `seq`-th write:
/// key, sequence, then filler derived from both, so a read can be checked
/// against the last write without keeping the bytes.
pub fn value_of(key: u64, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let mut fill = SplitMix64::new(key ^ seq.rotate_left(32));
    while v.len() < VALUE_BYTES {
        v.extend_from_slice(&fill.next_u64().to_le_bytes());
    }
    v
}

/// Decode `(key, seq)` from a value, or `None` if it is not one
/// [`value_of`] made.
pub fn decode_value(v: &[u8]) -> Option<(u64, u64)> {
    if v.len() != VALUE_BYTES {
        return None;
    }
    let key = u64::from_le_bytes(v[0..8].try_into().ok()?);
    let seq = u64::from_le_bytes(v[8..16].try_into().ok()?);
    (v == value_of(key, seq).as_slice()).then_some((key, seq))
}

/// What one generated operation does. Map kinds carry an index into the
/// workload's key set; `PqPush` carries a random priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Put = 1,
    QPush = 2,
    QPop = 3,
    PqPush = 4,
    PqPop = 5,
    OmGet = 6,
    OmPut = 7,
}

const KINDS: [Kind; 8] = [
    Kind::Get,
    Kind::Put,
    Kind::QPush,
    Kind::QPop,
    Kind::PqPush,
    Kind::PqPop,
    Kind::OmGet,
    Kind::OmPut,
];

impl Kind {
    /// Reads are `OpClass::Read` ops; everything else mutates.
    pub fn is_write(self) -> bool {
        !matches!(self, Kind::Get | Kind::OmGet)
    }
}

/// One generated operation, packed: kind in the top 4 bits, argument below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

const ARG_BITS: u32 = 28;

impl Op {
    pub fn new(kind: Kind, arg: usize) -> Self {
        debug_assert!(arg < 1 << ARG_BITS);
        Op((kind as u32) << ARG_BITS | arg as u32)
    }

    pub fn kind(self) -> Kind {
        KINDS[(self.0 >> ARG_BITS) as usize]
    }

    pub fn arg(self) -> usize {
        (self.0 & ((1 << ARG_BITS) - 1)) as usize
    }
}

/// Key popularity of a map workload.
#[derive(Debug, Clone, Copy)]
pub enum Dist {
    Uniform,
    /// YCSB zipfian with this theta, popularity ranks scattered over the
    /// key set by a seeded permutation.
    Zipf(f64),
}

/// Which keys a read may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Any key of the set (the workload preloads all of them).
    Preloaded,
    /// Only keys an earlier op of this stream wrote.
    Written,
}

/// How a map stream chooses between writing and reading.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// One coin per `block` consecutive ops, so a block can be timed as a
    /// unit and still belong to one op class.
    Random { write_share: f64, block: usize },
    /// `writes` puts then `reads` gets, repeating.
    Cycle { writes: usize, reads: usize },
}

/// A map op stream: `n_ops` gets/puts over `SET_SIZE` key indices. A read
/// with nothing to read yet becomes a write.
pub fn map_ops(rng: &mut SplitMix64, n_ops: usize, mix: Mix, dist: Dist, reads: Reads) -> Vec<Op> {
    let zipf = match dist {
        Dist::Uniform => None,
        Dist::Zipf(theta) => Some((Zipf::new(SET_SIZE, theta), permutation(rng, SET_SIZE))),
    };
    let mut written: Vec<u32> = Vec::new();
    let mut is_written = vec![reads == Reads::Preloaded; SET_SIZE];
    let mut ops = Vec::with_capacity(n_ops);
    let mut coin = false;
    for i in 0..n_ops {
        let wants_write = match mix {
            Mix::Random { write_share, block } => {
                if i % block == 0 {
                    coin = rng.next_f64() < write_share;
                }
                coin
            }
            Mix::Cycle { writes, reads } => i % (writes + reads) < writes,
        };
        let write = wants_write || (reads == Reads::Written && written.is_empty());
        let drawn = match &zipf {
            None => rng.below(SET_SIZE),
            Some((z, scatter)) => scatter[z.rank(rng)] as usize,
        };
        let idx = if write || is_written[drawn] {
            drawn
        } else {
            written[rng.below(written.len())] as usize
        };
        if write && !is_written[idx] {
            is_written[idx] = true;
            written.push(idx as u32);
        }
        ops.push(Op::new(if write { Kind::Put } else { Kind::Get }, idx));
    }
    ops
}

/// The `queue_mix` stream: the six container ops round-robin. Pops follow
/// pushes, so with a preloaded backlog no pop finds its queue empty.
pub fn queue_ops(rng: &mut SplitMix64, n_ops: usize) -> Vec<Op> {
    const ROUND: [Kind; 6] = [
        Kind::QPush,
        Kind::PqPush,
        Kind::OmPut,
        Kind::QPop,
        Kind::PqPop,
        Kind::OmGet,
    ];
    let mut written: Vec<u32> = Vec::new();
    let mut is_written = vec![false; SET_SIZE];
    (0..n_ops)
        .map(|i| {
            let kind = ROUND[i % ROUND.len()];
            let arg = match kind {
                Kind::PqPush => rng.below(1 << ARG_BITS),
                Kind::OmPut => {
                    let idx = rng.below(SET_SIZE);
                    if !is_written[idx] {
                        is_written[idx] = true;
                        written.push(idx as u32);
                    }
                    idx
                }
                Kind::OmGet => written[rng.below(written.len())] as usize,
                _ => 0,
            };
            Op::new(kind, arg)
        })
        .collect()
}

fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Order-sensitive hash of an op stream (FNV-1a over the packed ops).
#[cfg(test)]
pub fn stream_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, op| {
        (h ^ op.0 as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let stream = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut ops = map_ops(
                &mut rng,
                50_000,
                Mix::Random {
                    write_share: 0.05,
                    block: 1,
                },
                Dist::Zipf(0.99),
                Reads::Preloaded,
            );
            ops.extend(map_ops(
                &mut rng,
                50_000,
                Mix::Cycle {
                    writes: 16,
                    reads: 2,
                },
                Dist::Uniform,
                Reads::Written,
            ));
            ops.extend(queue_ops(&mut rng, 50_000));
            stream_hash(&ops)
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn zipf_head_mass_matches_analytic() {
        let z = Zipf::new(SET_SIZE, 0.99);
        let mut rng = SplitMix64::new(1);
        let draws = 4_000_000;
        let mut head = [0u64; 2];
        for _ in 0..draws {
            let r = z.rank(&mut rng);
            if r < 2 {
                head[r] += 1;
            }
        }
        for (r, &count) in head.iter().enumerate() {
            let seen = count as f64 / draws as f64;
            let want = z.mass(r);
            assert!(
                (seen / want - 1.0).abs() < 0.01,
                "rank {r}: drew {seen}, analytic {want}"
            );
        }
    }

    #[test]
    fn written_reads_only_ask_for_written_keys() {
        let mut rng = SplitMix64::new(3);
        let ops = map_ops(
            &mut rng,
            20_000,
            Mix::Random {
                write_share: 0.3,
                block: 1,
            },
            Dist::Uniform,
            Reads::Written,
        );
        let mut written = vec![false; SET_SIZE];
        for op in ops {
            match op.kind() {
                Kind::Put => written[op.arg()] = true,
                Kind::Get => assert!(written[op.arg()]),
                other => panic!("map stream holds {other:?}"),
            }
        }
    }

    #[test]
    fn blocks_share_one_kind() {
        let mut rng = SplitMix64::new(4);
        let ops = map_ops(
            &mut rng,
            32 * 100,
            Mix::Random {
                write_share: 0.5,
                block: 32,
            },
            Dist::Uniform,
            Reads::Preloaded,
        );
        for block in ops.chunks(32) {
            assert!(block.iter().all(|op| op.kind() == block[0].kind()));
        }
    }

    #[test]
    fn key_sets_split_by_owner_without_duplicates() {
        let mut rng = SplitMix64::new(5);
        let owner = |k: u64| (mix(k) & 1) as u32;
        let sets = key_sets(&mut rng, owner);
        assert_eq!((sets.remote.len(), sets.local.len()), (SET_SIZE, SET_SIZE));
        assert!(sets.remote.iter().all(|&k| owner(k) == 1 && k < KEY_SPACE));
        assert!(sets.local.iter().all(|&k| owner(k) == 0 && k < KEY_SPACE));
        let mut all: Vec<u64> = sets.remote.iter().chain(&sets.local).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * SET_SIZE);
    }

    #[test]
    fn values_round_trip_and_reject_corruption() {
        let v = value_of(0xABCDEF, 42);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(decode_value(&v), Some((0xABCDEF, 42)));
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert_eq!(decode_value(&bad), None);
        assert_eq!(decode_value(&v[..63]), None);
    }
}
