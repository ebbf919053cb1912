//! Seeded op streams and the reply checks.
//!
//! The benchmark owns its generators (rather than borrowing `hat-ycsb`'s)
//! so that a change to the program under test cannot change the inputs it
//! is measured on. The geometry is YCSB's as the paper uses it: 24-byte
//! scrambled keys, 1000-byte values, Zipfian (θ = 0.99) request keys and
//! 10-key batches.

/// Bytes per value (YCSB: 10 fields × 100 B).
pub const VALUE_LEN: usize = 1000;
/// Keys per MultiGET / MultiPUT.
pub const BATCH: usize = 10;
/// The value byte every record is loaded with.
pub const LOAD_BYTE: u8 = 0xAB;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB's Zipfian sampler (Gray et al.), θ = 0.99; rank 0 is hottest.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(items: u64) -> Zipfian {
        let theta = 0.99;
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian { items, theta, zetan, alpha: 1.0 / (1.0 - theta), eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.items as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.items
    }
}

/// The 24-byte key of record `i`: "user" + 20 digits of its FNV-1a hash,
/// so hot Zipfian ranks scatter across the key space (and the shards).
pub fn key(i: u32) -> Vec<u8> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (i as u64).to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("user{h:020}").into_bytes()
}

/// One KV operation, by record index; a write carries its value byte
/// (every value is `[byte; VALUE_LEN]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    Get(u32),
    Put(u32, u8),
    MultiGet(Vec<u32>),
    MultiPut(Vec<u32>, Vec<u8>),
}

/// A KV mix: shares of [GET, PUT, MultiGET, MultiPUT] over `records`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvMix {
    pub shares: [f64; 4],
    pub records: u32,
}

/// The seeded KV op stream.
pub struct KvGen {
    mix: KvMix,
    zipf: Zipfian,
    rng: Rng,
}

impl KvGen {
    pub fn new(mix: KvMix, seed: u64) -> KvGen {
        KvGen { mix, zipf: Zipfian::new(mix.records as u64), rng: Rng::new(seed) }
    }

    fn pick(&mut self) -> u32 {
        self.zipf.sample(&mut self.rng) as u32
    }

    fn byte(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    pub fn next_op(&mut self) -> KvOp {
        let roll = self.rng.unit();
        let [g, p, mg, _] = self.mix.shares;
        if roll < g {
            KvOp::Get(self.pick())
        } else if roll < g + p {
            let k = self.pick();
            KvOp::Put(k, self.byte())
        } else if roll < g + p + mg {
            KvOp::MultiGet((0..BATCH).map(|_| self.pick()).collect())
        } else {
            let keys: Vec<u32> = (0..BATCH).map(|_| self.pick()).collect();
            let bytes = (0..BATCH).map(|_| self.byte()).collect();
            KvOp::MultiPut(keys, bytes)
        }
    }
}

/// What each record must read as: the load byte, then the last byte this
/// (only) client wrote. A write that failed may or may not have landed,
/// so its key accepts either value until the next read settles it.
pub struct Shadow {
    bytes: Vec<u8>,
    unsettled: std::collections::HashMap<u32, Vec<u8>>,
}

impl Shadow {
    pub fn new(records: u32) -> Shadow {
        Shadow { bytes: vec![LOAD_BYTE; records as usize], unsettled: Default::default() }
    }

    /// Record a write the server acknowledged.
    pub fn wrote(&mut self, key: u32, byte: u8) {
        self.unsettled.remove(&key);
        self.bytes[key as usize] = byte;
    }

    /// Record a write whose outcome is unknown (the call errored).
    pub fn maybe_wrote(&mut self, key: u32, byte: u8) {
        let old = self.bytes[key as usize];
        let allowed = self.unsettled.entry(key).or_insert_with(|| vec![old]);
        allowed.push(byte);
    }

    /// Check one read reply; true when it is a value the key may hold.
    pub fn check(&mut self, key: u32, reply: &[u8]) -> bool {
        if reply.len() != VALUE_LEN || reply.iter().any(|&b| b != reply[0]) {
            return false;
        }
        match self.unsettled.get(&key) {
            None => reply[0] == self.bytes[key as usize],
            Some(allowed) if allowed.contains(&reply[0]) => {
                self.wrote(key, reply[0]);
                true
            }
            Some(_) => false,
        }
    }
}

/// Payload pools for the Mix Comm workload: each call echoes one seeded
/// payload, picked by the seeded stream, so the echo can be checked.
pub struct MixGen {
    pub fast: Vec<Vec<u8>>,
    pub bulk: Vec<Vec<u8>>,
    rng: Rng,
}

/// Distinct payloads per function in the Mix Comm pools.
const POOL: usize = 32;

impl MixGen {
    pub fn new(fast_len: usize, bulk_len: usize, seed: u64) -> MixGen {
        let mut rng = Rng::new(seed);
        let mut pool = |len: usize| -> Vec<Vec<u8>> {
            (0..POOL).map(|_| (0..len).map(|_| rng.next_u64() as u8).collect()).collect()
        };
        let fast = pool(fast_len);
        let bulk = pool(bulk_len);
        MixGen { fast, bulk, rng }
    }

    /// Index of the next payload to send.
    pub fn next_index(&mut self) -> usize {
        (self.rng.next_u64() % POOL as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCH_MIX: KvMix = KvMix { shares: [0.25, 0.25, 0.25, 0.25], records: 1000 };

    fn stream(seed: u64) -> Vec<KvOp> {
        let mut g = KvGen::new(BATCH_MIX, seed);
        (0..2000).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let (a, b) = (MixGen::new(16, 64, 3), MixGen::new(16, 64, 3));
        assert_eq!((a.fast, a.bulk), (b.fast, b.bulk));
        let (mut a, mut b) = (MixGen::new(16, 64, 3), MixGen::new(16, 64, 4));
        assert_ne!(a.bulk, b.bulk);
        let ia: Vec<_> = (0..64).map(|_| a.next_index()).collect();
        let ib: Vec<_> = (0..64).map(|_| b.next_index()).collect();
        assert_ne!(ia, ib);
    }

    #[test]
    fn mix_shares_and_zipf_skew() {
        let ops = stream(1);
        let gets = ops.iter().filter(|o| matches!(o, KvOp::Get(_))).count();
        assert!((400..600).contains(&gets), "{gets} GETs of 2000");
        let mut g = KvGen::new(KvMix { shares: [1.0, 0.0, 0.0, 0.0], records: 40_000 }, 2);
        let hot = (0..10_000).filter(|_| g.next_op() == KvOp::Get(0)).count();
        assert!(hot > 500, "rank 0 is hot under θ = 0.99: {hot}");
    }

    #[test]
    fn keys_are_distinct_and_24_bytes() {
        let keys: std::collections::HashSet<_> = (0..40_000).map(key).collect();
        assert_eq!(keys.len(), 40_000);
        assert!(keys.iter().all(|k| k.len() == 24));
    }

    #[test]
    fn shadow_flags_a_corrupted_reply() {
        let mut s = Shadow::new(4);
        assert!(s.check(1, &[LOAD_BYTE; VALUE_LEN]));
        s.wrote(1, 9);
        assert!(s.check(1, &[9; VALUE_LEN]));
        assert!(!s.check(1, &[LOAD_BYTE; VALUE_LEN]), "stale value");
        let mut torn = vec![9u8; VALUE_LEN];
        torn[VALUE_LEN - 1] = 8;
        assert!(!s.check(1, &torn), "torn value");
        assert!(!s.check(1, &[9; VALUE_LEN - 1]), "short value");
        assert!(!s.check(2, b""), "a loaded key read as missing");
        s.maybe_wrote(3, 5);
        assert!(s.check(3, &[5; VALUE_LEN]));
        assert!(!s.check(3, &[LOAD_BYTE; VALUE_LEN]), "settled by the first read");
    }
}
