//! A from-scratch LZ77 + Huffman compressor used for the *compressibility*
//! feature (Table II of the paper).
//!
//! The paper measures the compressibility of the symbolized interval series
//! with `gzip` at its highest level. What the feature actually captures is
//! the repetition structure of a three-symbol string: a perfectly periodic
//! series (`xxxx…`) collapses to almost nothing, while an irregular one
//! resists compression. Any dictionary coder followed by an entropy coder
//! preserves that ordering, so this module implements a compact DEFLATE-like
//! scheme: greedy LZ77 tokenization over a sliding window, then a canonical
//! Huffman code over the token alphabet. A decoder is included so tests can
//! prove the transform lossless.

/// Maximum LZ77 back-reference distance.
const WINDOW: usize = 4096;
/// Maximum LZ77 match length.
const MAX_MATCH: usize = 258;
/// Minimum match length worth emitting as a reference.
const MIN_MATCH: usize = 3;

/// An LZ77 token: a literal byte or a (distance, length) back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { distance: u16, length: u16 },
}

/// Greedy LZ77 tokenization with a hash-chain match finder.
fn lz77_tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let n = data.len();
    // head[h] = most recent position with hash h; prev[i] = previous
    // position with the same hash as i.
    const HASH_BITS: usize = 13;
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let hash = |d: &[u8]| -> usize {
        ((d[0] as usize) << 7 ^ (d[1] as usize) << 4 ^ (d[2] as usize)) & ((1 << HASH_BITS) - 1)
    };

    let mut i = 0;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash(&data[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < 32 {
                let limit = (n - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                distance: best_dist as u16,
                length: best_len as u16,
            });
            // Insert hash entries for every covered position.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let h = hash(&data[j..]);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            if i + MIN_MATCH <= n {
                let h = hash(&data[i..]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    tokens
}

/// Huffman code: symbol → (bits, bit-length). Built canonically from symbol
/// frequencies using a simple two-queue construction.
#[expect(
    clippy::expect_used,
    reason = "heap pops are guarded by the loop condition and slots are filled before their indices are pushed; a violation means a corrupt arena"
)]
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    let symbols: Vec<usize> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    let mut lengths = vec![0u8; freqs.len()];
    match symbols.len() {
        0 => return lengths,
        1 => {
            lengths[symbols[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Build the tree with a binary heap of (weight, node).
    #[derive(Debug)]
    enum Node {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // BinaryHeap needs Ord; wrap weight and a tiebreaker id.
    let mut heap: BinaryHeap<(Reverse<u64>, Reverse<usize>, usize)> = BinaryHeap::new();
    let mut arena: Vec<Node> = Vec::new();
    for &s in &symbols {
        arena.push(Node::Leaf(s));
        heap.push((Reverse(freqs[s]), Reverse(arena.len() - 1), arena.len() - 1));
    }
    // To combine nodes we need ownership; use indices with Option slots.
    let mut slots: Vec<Option<Node>> = arena.into_iter().map(Some).collect();
    while heap.len() > 1 {
        let (Reverse(w1), _, i1) = heap.pop().expect("heap len > 1");
        let (Reverse(w2), _, i2) = heap.pop().expect("heap len > 1");
        let n1 = slots[i1].take().expect("slot occupied");
        let n2 = slots[i2].take().expect("slot occupied");
        slots.push(Some(Node::Internal(Box::new(n1), Box::new(n2))));
        let idx = slots.len() - 1;
        heap.push((Reverse(w1 + w2), Reverse(idx), idx));
    }
    let (_, _, root_idx) = heap.pop().expect("one node remains");
    let root = slots[root_idx].take().expect("root occupied");

    fn walk(node: &Node, depth: u8, lengths: &mut [u8]) {
        match node {
            Node::Leaf(s) => lengths[*s] = depth.max(1),
            Node::Internal(l, r) => {
                walk(l, depth + 1, lengths);
                walk(r, depth + 1, lengths);
            }
        }
    }
    walk(&root, 0, &mut lengths);
    lengths
}

/// Canonical codes from code lengths (JPEG/DEFLATE style).
fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let mut pairs: Vec<(usize, u8)> = lengths
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0)
        .map(|(s, &l)| (s, l))
        .collect();
    pairs.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut codes = vec![(0u32, 0u8); lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for (sym, len) in pairs {
        code <<= len - prev_len;
        codes[sym] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// A growable bit sink.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u8,
}

impl BitWriter {
    fn write(&mut self, code: u32, len: u8) {
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            if bit == 1 {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << (7 - self.bit_pos);
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }
}

/// A bit source over a byte slice.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn read_bit(&mut self) -> Option<u8> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit)
    }
    fn read_bits(&mut self, n: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }
}

// Token symbol space: 0..=255 literals, 256 = end-of-stream,
// 257.. = match-length symbols (length encoded directly, distance raw).
const SYM_EOS: usize = 256;
const SYM_MATCH_BASE: usize = 257;
const N_SYMBOLS: usize = SYM_MATCH_BASE + MAX_MATCH - MIN_MATCH + 1;

/// Compresses `data`; the output embeds the Huffman code lengths so it is
/// self-contained.
///
/// # Example
///
/// ```
/// use baywatch_classifier::compress::{compress, decompress};
///
/// let periodic = vec![b'x'; 1000];
/// let packed = compress(&periodic);
/// assert!(packed.len() < 100, "periodic data should collapse");
/// assert_eq!(decompress(&packed).unwrap(), periodic);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77_tokenize(data);

    // Frequency pass.
    let mut freqs = vec![0u64; N_SYMBOLS];
    for t in &tokens {
        match t {
            Token::Literal(b) => freqs[*b as usize] += 1,
            Token::Match { length, .. } => {
                freqs[SYM_MATCH_BASE + (*length as usize - MIN_MATCH)] += 1
            }
        }
    }
    freqs[SYM_EOS] += 1;

    let lengths = huffman_lengths(&freqs);
    let codes = canonical_codes(&lengths);

    // Header: code length (1 byte, 0 = unused) per symbol, run-length
    // encoded as (count, value) pairs.
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < N_SYMBOLS {
        let v = lengths[i];
        let mut run = 1usize;
        while i + run < N_SYMBOLS && lengths[i + run] == v && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(v);
        i += run;
    }
    out.push(0); // run = 0 terminates the header

    let mut bw = BitWriter::default();
    for t in &tokens {
        match t {
            Token::Literal(b) => {
                let (c, l) = codes[*b as usize];
                bw.write(c, l);
            }
            Token::Match { distance, length } => {
                let sym = SYM_MATCH_BASE + (*length as usize - MIN_MATCH);
                let (c, l) = codes[sym];
                bw.write(c, l);
                bw.write(*distance as u32, 13); // WINDOW = 4096 fits in 13 bits
            }
        }
    }
    let (c, l) = codes[SYM_EOS];
    bw.write(c, l);

    out.extend_from_slice(&bw.bytes);
    out
}

/// Decompresses a buffer produced by [`compress`].
///
/// Returns `None` for corrupt input.
pub fn decompress(packed: &[u8]) -> Option<Vec<u8>> {
    // Parse header.
    let mut lengths = vec![0u8; N_SYMBOLS];
    let mut idx = 0usize;
    let mut sym = 0usize;
    loop {
        let run = *packed.get(idx)? as usize;
        idx += 1;
        if run == 0 {
            break;
        }
        let v = *packed.get(idx)?;
        idx += 1;
        if sym + run > N_SYMBOLS {
            return None;
        }
        for l in lengths.iter_mut().skip(sym).take(run) {
            *l = v;
        }
        sym += run;
    }
    if sym != N_SYMBOLS {
        return None;
    }
    let codes = canonical_codes(&lengths);
    // Build a decode map: (len, code) -> symbol.
    let mut decode: std::collections::HashMap<(u8, u32), usize> = std::collections::HashMap::new();
    for (s, &(c, l)) in codes.iter().enumerate() {
        if l > 0 {
            decode.insert((l, c), s);
        }
    }

    let mut br = BitReader::new(&packed[idx..]);
    let mut out = Vec::new();
    loop {
        let mut code = 0u32;
        let mut len = 0u8;
        let s = loop {
            code = (code << 1) | br.read_bit()? as u32;
            len += 1;
            if len > 32 {
                return None;
            }
            if let Some(&s) = decode.get(&(len, code)) {
                break s;
            }
        };
        if s == SYM_EOS {
            return Some(out);
        } else if s < 256 {
            out.push(s as u8);
        } else {
            let length = s - SYM_MATCH_BASE + MIN_MATCH;
            let distance = br.read_bits(13)? as usize;
            if distance == 0 || distance > out.len() {
                return None;
            }
            let start = out.len() - distance;
            for k in 0..length {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
}

/// Compression ratio `compressed_len / original_len` — the Table II
/// compressibility feature. Lower = more compressible = more regular.
///
/// Returns 1.0 for empty input (no structure to exploit).
///
/// # Example
///
/// ```
/// use baywatch_classifier::compress::compression_ratio;
///
/// let periodic = "x".repeat(500);
/// let irregular: String = (0..500).map(|i| if (i * 2654435761u64 as usize) % 3 == 0 { 'x' }
///     else if i % 7 == 3 { 'y' } else { 'z' }).collect();
/// assert!(compression_ratio(periodic.as_bytes()) < compression_ratio(irregular.as_bytes()));
/// ```
pub fn compression_ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    compress(data).len() as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for input in [
            &b""[..],
            &b"a"[..],
            &b"abc"[..],
            &b"aaaaaaaaaa"[..],
            &b"abcabcabcabcabc"[..],
            &b"the quick brown fox jumps over the lazy dog"[..],
        ] {
            let packed = compress(input);
            assert_eq!(decompress(&packed).as_deref(), Some(input), "{input:?}");
        }
    }

    #[test]
    fn roundtrip_symbolized_series() {
        // Realistic x/y/z series with bursts and irregularities.
        let mut s = Vec::new();
        for i in 0..2000 {
            s.push(match i % 97 {
                0 => b'z',
                1..=3 => b'y',
                _ => b'x',
            });
        }
        let packed = compress(&s);
        assert_eq!(decompress(&packed).unwrap(), s);
        assert!(
            packed.len() < s.len() / 4,
            "compressed {} of {}",
            packed.len(),
            s.len()
        );
    }

    #[test]
    fn roundtrip_binary_data() {
        let data: Vec<u8> = (0..4096u64)
            .map(|i| ((i * 2654435761) >> 13) as u8)
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn periodic_compresses_better_than_random() {
        let periodic: Vec<u8> = b"xxxxxxxxxx".repeat(100);
        let pseudo_random: Vec<u8> = (0..1000u64)
            .map(|i| b"xyz"[((i * 2654435761) % 3) as usize])
            .collect();
        assert!(compression_ratio(&periodic) < compression_ratio(&pseudo_random));
    }

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(compression_ratio(&[]), 1.0);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[0xff, 0x00, 0x01]).is_none());
        assert!(decompress(&[]).is_none());
    }

    #[test]
    fn huffman_lengths_kraft_inequality() {
        let freqs = vec![10, 1, 5, 0, 3, 7, 0, 2];
        let lengths = huffman_lengths(&freqs);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft = {kraft}");
        // Unused symbols get no code.
        assert_eq!(lengths[3], 0);
        assert_eq!(lengths[6], 0);
        // More frequent symbols never get longer codes than rarer ones.
        assert!(lengths[0] <= lengths[1]);
    }

    #[test]
    fn single_symbol_stream() {
        let packed = compress(b"zzzz");
        assert_eq!(decompress(&packed).unwrap(), b"zzzz");
    }

    #[test]
    fn long_match_chains() {
        // Force matches at MAX_MATCH boundaries.
        let data = vec![b'q'; MAX_MATCH * 3 + 17];
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
