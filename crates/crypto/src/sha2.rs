//! SHA-256 and SHA-512, implemented from scratch (FIPS 180-4).
//!
//! The round constants and initial hash values are *computed* at first use
//! from the fractional parts of the square/cube roots of the first primes,
//! exactly as the standard defines them, rather than being transcribed as
//! magic tables. This removes an entire class of transcription errors; the
//! implementation is validated against the well-known digest test vectors
//! in this module's tests.
//!
//! # SHA-256 backends
//!
//! SHA-256 compresses blocks with one of two backends, chosen at run time
//! with no option to set:
//!
//! * **hardware** — the x86-64 SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`). Every `update` and `finalize` checks once,
//!   with `is_x86_feature_detected!`, for `sha`, `ssse3` and `sse4.1`, and
//!   uses this backend when all three are present. It reads the same
//!   computed round-constant table as the portable backend.
//! * **portable** — plain Rust, on every other CPU and architecture. The
//!   tests use it as the reference the hardware backend must match bit for
//!   bit.
//!
//! All `unsafe` code lives in the private `kernel` module. SHA-512 has only
//! the portable implementation.

use std::sync::OnceLock;

/// Returns the first `n` prime numbers.
fn first_primes(n: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(n);
    let mut candidate: u64 = 2;
    while primes.len() < n {
        if primes.iter().all(|p| !candidate.is_multiple_of(*p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// 128x128 -> 256-bit multiplication, returning `(hi, lo)`.
fn mul_128(a: u128, b: u128) -> (u128, u128) {
    const M64: u128 = (1u128 << 64) - 1;
    let (a0, a1) = (a & M64, a >> 64);
    let (b0, b1) = (b & M64, b >> 64);
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    let mid = (ll >> 64) + (lh & M64) + (hl & M64);
    let lo = (ll & M64) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

/// Minimal 256-bit unsigned integer used only for constant generation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// `self * m`, truncated to 256 bits (callers guarantee no overflow).
    fn mul_u128(self, m: u128) -> Self {
        let (lo_hi, lo_lo) = mul_128(self.lo, m);
        let (_, hi_lo) = mul_128(self.hi, m);
        U256 {
            hi: lo_hi.wrapping_add(hi_lo),
            lo: lo_lo,
        }
    }
}

/// `floor(sqrt(p) * 2^64)`: binary search for the largest `x` with
/// `x^2 <= p << 128`.
fn sqrt_frac_bits(p: u64) -> u128 {
    // p * 2^128 => hi = p, lo = 0
    let target = U256 {
        hi: p as u128,
        lo: 0,
    };
    let (mut lo, mut hi) = (0u128, 1u128 << 70);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        let sq = {
            let (h, l) = mul_128(mid, mid);
            U256 { hi: h, lo: l }
        };
        if sq <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `floor(cbrt(p) * 2^64)`: binary search for the largest `x` with
/// `x^3 <= p << 192`.
fn cbrt_frac_bits(p: u64) -> u128 {
    let target = U256 {
        hi: (p as u128) << 64, // p * 2^192
        lo: 0,
    };
    let (mut lo, mut hi) = (0u128, 1u128 << 70);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        let sq = {
            let (h, l) = mul_128(mid, mid);
            U256 { hi: h, lo: l }
        };
        let cube = sq.mul_u128(mid);
        if cube <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn sha256_h() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let primes = first_primes(8);
        let mut h = [0u32; 8];
        for (i, p) in primes.iter().enumerate() {
            let bits = sqrt_frac_bits(*p) as u64; // low 64 bits = fractional part
            h[i] = (bits >> 32) as u32;
        }
        h
    })
}

fn sha256_k() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(64);
        let mut k = [0u32; 64];
        for (i, p) in primes.iter().enumerate() {
            let bits = cbrt_frac_bits(*p) as u64;
            k[i] = (bits >> 32) as u32;
        }
        k
    })
}

fn sha512_h() -> &'static [u64; 8] {
    static H: OnceLock<[u64; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let primes = first_primes(8);
        let mut h = [0u64; 8];
        for (i, p) in primes.iter().enumerate() {
            h[i] = sqrt_frac_bits(*p) as u64;
        }
        h
    })
}

fn sha512_k() -> &'static [u64; 80] {
    static K: OnceLock<[u64; 80]> = OnceLock::new();
    K.get_or_init(|| {
        let primes = first_primes(80);
        let mut k = [0u64; 80];
        for (i, p) in primes.iter().enumerate() {
            k[i] = cbrt_frac_bits(*p) as u64;
        }
        k
    })
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use spire_crypto::sha2::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: *sha256_h(),
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(kernel::ShaNi::detect(), data);
    }

    /// Finishes the computation, returning the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(kernel::ShaNi::detect())
    }

    /// [`Sha256::update`] on the given backend (`None`: portable).
    fn update_with(&mut self, hw: Option<kernel::ShaNi>, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            let block = self.buffer;
            self.compress_blocks(hw, &block);
            self.buffered = 0;
        }
        let full = rest.len() - rest.len() % 64;
        if full > 0 {
            self.compress_blocks(hw, &rest[..full]);
            rest = &rest[full..];
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`Sha256::finalize`] on the given backend (`None`: portable).
    fn finalize_with(mut self, hw: Option<kernel::ShaNi>) -> [u8; 32] {
        // The buffered bytes, the 0x80 terminator, zero fill and the 64-bit
        // bit length: one block, or two if fewer than 8 bytes remain after
        // the terminator.
        let bit_len = self.length.wrapping_mul(8);
        let used = self.buffered;
        let end = if used < 56 { 64 } else { 128 };
        let mut tail = [0u8; 128];
        tail[..used].copy_from_slice(&self.buffer[..used]);
        tail[used] = 0x80;
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_blocks(hw, &tail[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into the state.
    fn compress_blocks(&mut self, hw: Option<kernel::ShaNi>, blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64));
        match hw {
            Some(ni) => ni.compress(&mut self.state, blocks),
            None => {
                for block in blocks.chunks_exact(64) {
                    self.compress(block.try_into().expect("64-byte chunk"));
                }
            }
        }
    }

    /// The portable compression function.
    fn compress(&mut self, block: &[u8; 64]) {
        let k = sha256_k();
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The hardware SHA-256 backend: the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod kernel {
    use std::arch::x86_64::*;

    /// Proof that this CPU has the SHA extensions plus SSSE3 and SSE4.1.
    /// Only [`ShaNi::detect`] makes one.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// The hardware backend, if the CPU supports it.
        pub(super) fn detect() -> Option<ShaNi> {
            let present = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            present.then_some(ShaNi(()))
        }

        /// Compresses `blocks` (a whole number of 64-byte blocks) into
        /// `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only if `detect` saw `sha`, `ssse3`
            // and `sse4.1` on this CPU, which are the features
            // `compress_blocks` enables.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Next four message-schedule words from the previous sixteen
    /// (`w0` oldest).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses each whole 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let k = super::sha256_k();
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The rounds instruction keeps the state as (a, b, e, f) and
        // (c, d, g, h), highest lane first.
        // SAFETY: `state` is 32 bytes, read as two unaligned 16-byte loads;
        // SSE2 is in the x86-64 baseline and the caller's `ShaNi::detect`
        // found the rest.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `chunks_exact` makes `block` 64 bytes, read as four
            // unaligned 16-byte loads; SSE2 is in the x86-64 baseline and
            // `ShaNi::detect` found SSSE3 for the shuffles.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                // SAFETY: `k` has 64 words and `4 * i + 3 < 64`; SSE2 is in
                // the x86-64 baseline (`ShaNi::detect` covers the rest).
                let ki = unsafe { _mm_loadu_si128(k.as_ptr().add(4 * i).cast::<__m128i>()) };
                let wk = _mm_add_epi32(w[i % 4], ki);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        // SAFETY: `state` is 32 bytes, written as two unaligned 16-byte
        // stores; SSE2 is in the x86-64 baseline (`ShaNi::detect` covers
        // the rest).
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// No hardware SHA-256 backend off x86-64: the portable one always runs.
#[cfg(not(target_arch = "x86_64"))]
mod kernel {
    #[derive(Clone, Copy, Debug)]
    pub(super) enum ShaNi {}

    impl ShaNi {
        pub(super) fn detect() -> Option<ShaNi> {
            None
        }

        pub(super) fn compress(self, _state: &mut [u32; 8], _blocks: &[u8]) {
            match self {}
        }
    }
}

/// Incremental SHA-512 hasher.
///
/// # Examples
///
/// ```
/// use spire_crypto::sha2::Sha512;
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: *sha512_h(),
            buffer: [0u8; 128],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 64-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        let mut rest = data;
        if self.buffered > 0 {
            let need = 128 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 128 {
            let mut block = [0u8; 128];
            block.copy_from_slice(&rest[..128]);
            self.compress(&block);
            rest = &rest[128..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the computation, returning the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        let bit_len = self.length.wrapping_mul(8);
        let used = self.buffered;
        let mut pad = [0u8; 128];
        pad[0] = 0x80;
        if used >= 112 {
            self.buffer[used..].copy_from_slice(&pad[..128 - used]);
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 128];
            self.buffered = 0;
        } else {
            self.buffer[used..112].copy_from_slice(&pad[..112 - used]);
            self.buffered = 112;
        }
        let mut last = [0u8; 128];
        last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        last[112..128].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&last);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 128]) {
        let k = sha512_k();
        let mut w = [0u64; 80];
        for i in 0..16 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&block[i * 8..i * 8 + 8]);
            w[i] = u64::from_be_bytes(word);
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a hexadecimal string into bytes.
///
/// # Panics
///
/// Panics if the string has odd length or contains non-hex characters; it is
/// intended for test vectors and fixed constants.
pub fn from_hex(s: &str) -> Vec<u8> {
    assert!(
        s.len().is_multiple_of(2),
        "hex string must have even length"
    );
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).expect("invalid hex"))
        .collect()
}

/// Formats bytes as a lowercase hexadecimal string.
pub fn to_hex(bytes: &[u8]) -> String {
    hex(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_fips() {
        // Spot checks against the universally known FIPS 180-4 constants.
        assert_eq!(sha256_h()[0], 0x6a09e667);
        assert_eq!(sha256_k()[0], 0x428a2f98);
        assert_eq!(sha512_h()[0], 0x6a09e667f3bcc908);
    }

    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            to_hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            to_hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = Sha256::digest(&data);
        for chunk in [1usize, 3, 17, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_sha512_matches_one_shot() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        let one_shot = Sha512::digest(&data);
        for chunk in [1usize, 7, 127, 128, 129, 500] {
            let mut h = Sha512::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the padding boundaries must all hash without
        // panicking and produce distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130usize {
            let data = vec![0xabu8; len];
            assert!(seen.insert(Sha256::digest(&data)), "collision at {len}");
        }
    }
}

/// Differential tests: the hardware SHA-256 backend against the portable
/// one, which is the reference.
#[cfg(test)]
mod backend_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::io::Write;

    /// The hardware backend, or `None` after a note on stderr that `test`'s
    /// hardware half did not run. The note is written to stderr directly,
    /// not with `eprintln!`, so the test harness does not capture it and a
    /// passing run still shows it.
    fn hardware(test: &str) -> Option<kernel::ShaNi> {
        let hw = kernel::ShaNi::detect();
        if hw.is_none() {
            let _ = writeln!(
                std::io::stderr(),
                "{test}: hardware SHA-256 backend NOT RUN: this CPU lacks the SHA extensions"
            );
        }
        hw
    }

    /// SHA-256 of the concatenation of `pieces` on the given backend.
    fn digest_on(hw: Option<kernel::ShaNi>, pieces: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for piece in pieces {
            h.update_with(hw, piece);
        }
        h.finalize_with(hw)
    }

    /// HMAC-SHA256 (RFC 2104) built on the given backend.
    fn hmac_on(hw: Option<kernel::ShaNi>, key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&digest_on(hw, &[key]));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let ipad = block.map(|b| b ^ 0x36);
        let opad = block.map(|b| b ^ 0x5c);
        let inner = digest_on(hw, &[&ipad, message]);
        digest_on(hw, &[&opad, &inner])
    }

    /// Both backends in test order: portable first.
    fn backends(test: &str) -> Vec<Option<kernel::ShaNi>> {
        let mut all = vec![None];
        if let Some(ni) = hardware(test) {
            all.push(Some(ni));
        }
        all
    }

    #[test]
    fn compress_functions_agree_on_random_blocks() {
        let Some(ni) = hardware("compress_functions_agree_on_random_blocks") else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(0x005b_a256);
        for n_blocks in [1usize, 2, 3, 8] {
            for _ in 0..64 {
                let state: [u32; 8] = std::array::from_fn(|_| rng.gen());
                let mut blocks = vec![0u8; 64 * n_blocks];
                rng.fill_bytes(&mut blocks);

                let mut portable = Sha256::new();
                portable.state = state;
                for block in blocks.chunks_exact(64) {
                    portable.compress(block.try_into().unwrap());
                }
                let mut on_hw = state;
                ni.compress(&mut on_hw, &blocks);
                assert_eq!(on_hw, portable.state, "{n_blocks} blocks");
            }
        }
    }

    #[test]
    fn digests_agree_for_every_length_to_4096() {
        let Some(ni) = hardware("digests_agree_for_every_length_to_4096") else {
            return;
        };
        let mut data = vec![0u8; 4096];
        StdRng::seed_from_u64(4096).fill_bytes(&mut data);
        for len in 0..=data.len() {
            let msg = &data[..len];
            assert_eq!(
                digest_on(Some(ni), &[msg]),
                digest_on(None, &[msg]),
                "length {len}"
            );
        }
    }

    #[test]
    fn padding_edges_and_split_updates_agree() {
        let hw = hardware("padding_edges_and_split_updates_agree");
        let mut data = vec![0u8; 1000];
        StdRng::seed_from_u64(55).fill_bytes(&mut data);
        let lengths = [55usize, 56, 63, 64, 65, 119, 120, 127, 128, 129, 1000];
        let chunk_sizes = [1usize, 3, 7, 55, 56, 63, 64, 65, 100];
        for len in lengths {
            let msg = &data[..len];
            let reference = digest_on(None, &[msg]);
            for chunk in chunk_sizes {
                let pieces: Vec<&[u8]> = msg.chunks(chunk).collect();
                assert_eq!(
                    digest_on(None, &pieces),
                    reference,
                    "portable {len}/{chunk}"
                );
                if let Some(ni) = hw {
                    assert_eq!(
                        digest_on(Some(ni), &pieces),
                        reference,
                        "hardware {len}/{chunk}"
                    );
                }
            }
            // Mixing backends between calls must not matter either.
            if let Some(ni) = hw {
                let mut h = Sha256::new();
                for (i, piece) in msg.chunks(17).enumerate() {
                    h.update_with(if i % 2 == 0 { Some(ni) } else { None }, piece);
                }
                assert_eq!(h.finalize_with(Some(ni)), reference, "mixed {len}");
            }
        }
    }

    #[test]
    fn fips_180_4_vectors_on_both_backends() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for hw in backends("fips_180_4_vectors_on_both_backends") {
            for (msg, want) in vectors {
                assert_eq!(to_hex(&digest_on(hw, &[msg])), want, "{hw:?}");
            }
        }
    }

    #[test]
    fn rfc4231_vectors_on_both_backends() {
        let long_key = [0xaau8; 131];
        let vectors: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                    23, 24, 25,
                ],
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for hw in backends("rfc4231_vectors_on_both_backends") {
            for (key, msg, want) in vectors {
                assert_eq!(to_hex(&hmac_on(hw, key, msg)), want, "{hw:?}");
            }
        }
        // The public HMAC, on whichever backend this CPU selects.
        for (key, msg, want) in vectors {
            assert_eq!(to_hex(&crate::hmac::hmac_sha256(key, msg)), want);
        }
    }
}
