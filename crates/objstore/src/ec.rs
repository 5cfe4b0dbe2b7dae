//! Erasure coding: k data fragments + 1 XOR parity fragment
//! (RAID-5-style), the space-efficient alternative to replication the
//! paper attributes to object storage durability ("high durability and
//! reliability by means of replication and erasure coding mechanisms",
//! §I).
//!
//! Pure fragment math lives here; placement and cost accounting live in
//! [`crate::cluster`]. Any single lost fragment — including the parity —
//! is reconstructible.

/// An erasure-coding scheme: `data` fragments plus one parity fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcScheme {
    pub data: usize,
}

impl EcScheme {
    pub fn new(data: usize) -> Self {
        assert!(data >= 2, "erasure coding needs at least 2 data fragments");
        EcScheme { data }
    }

    /// Total fragments written per object.
    pub fn width(&self) -> usize {
        self.data + 1
    }

    /// Size of the (padded) fragment stripe for an object of `total`
    /// bytes.
    pub fn stripe(&self, total: usize) -> usize {
        total.div_ceil(self.data).max(1)
    }

    /// Length of data fragment `j` (unpadded) for an object of `total`
    /// bytes.
    pub fn frag_len(&self, total: usize, j: usize) -> usize {
        let fs = self.stripe(total);
        let start = j * fs;
        total.saturating_sub(start).min(fs)
    }

    /// Split `bytes` into `data` unpadded fragments plus the XOR parity
    /// (always `stripe` long).
    pub fn encode(&self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let fs = self.stripe(bytes.len());
        let mut out = Vec::with_capacity(self.width());
        let mut parity = vec![0u8; fs];
        for j in 0..self.data {
            let start = (j * fs).min(bytes.len());
            let end = ((j + 1) * fs).min(bytes.len());
            let frag = &bytes[start..end];
            for (p, &b) in parity.iter_mut().zip(frag) {
                *p ^= b;
            }
            out.push(frag.to_vec());
        }
        out.push(parity);
        out
    }

    /// Reassemble the object from fragments; index `data` is the parity.
    /// At most one fragment may be `None`. `total_len` is the object's
    /// original length (each stored fragment carries it).
    pub fn reconstruct<F: AsRef<[u8]>>(
        &self,
        total_len: usize,
        frags: &[Option<F>],
    ) -> Option<Vec<u8>> {
        if frags.len() != self.width() || frags.iter().filter(|f| f.is_none()).count() > 1 {
            return None;
        }
        let mut out = Vec::with_capacity(total_len);
        for (lost, frag) in frags.iter().enumerate().take(self.data) {
            let Some(frag) = frag else {
                // XOR of parity and the surviving data fragments
                // (zero-padded), trimmed to the lost fragment's length.
                let mut rec = frags[self.data].as_ref()?.as_ref().to_vec();
                rec.resize(self.stripe(total_len), 0);
                for other in frags[..self.data].iter().flatten() {
                    for (r, &b) in rec.iter_mut().zip(other.as_ref()) {
                        *r ^= b;
                    }
                }
                out.extend_from_slice(&rec[..self.frag_len(total_len, lost)]);
                continue;
            };
            out.extend_from_slice(frag.as_ref());
        }
        // A lost parity needs no action for reads.
        out.truncate(total_len);
        (out.len() == total_len).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_shapes() {
        let ec = EcScheme::new(4);
        assert_eq!(ec.width(), 5);
        let frags = ec.encode(&[1, 2, 3, 4, 5, 6, 7, 8, 9]); // stripe = 3
        assert_eq!(frags.len(), 5);
        assert_eq!(frags[0], vec![1, 2, 3]);
        assert_eq!(frags[2], vec![7, 8, 9]);
        assert_eq!(frags[3], Vec::<u8>::new()); // short tail fragment
        assert_eq!(frags[4].len(), 3); // parity is stripe-long
    }

    #[test]
    fn roundtrip_intact() {
        let ec = EcScheme::new(3);
        let data: Vec<u8> = (0..100u8).collect();
        let frags: Vec<Option<Vec<u8>>> = ec.encode(&data).into_iter().map(Some).collect();
        assert_eq!(ec.reconstruct(100, &frags).unwrap(), data);
    }

    #[test]
    fn any_single_loss_recovers() {
        let ec = EcScheme::new(4);
        let data: Vec<u8> = (0..250u8).chain(0..33).collect();
        let encoded = ec.encode(&data);
        for lost in 0..ec.width() {
            let mut frags: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
            frags[lost] = None;
            assert_eq!(
                ec.reconstruct(data.len(), &frags).unwrap(),
                data,
                "lost fragment {lost}"
            );
        }
    }

    #[test]
    fn double_loss_fails() {
        let ec = EcScheme::new(3);
        let data = vec![9u8; 50];
        let mut frags: Vec<Option<Vec<u8>>> = ec.encode(&data).into_iter().map(Some).collect();
        frags[0] = None;
        frags[2] = None;
        assert!(ec.reconstruct(50, &frags).is_none());
    }

    #[test]
    fn empty_and_tiny_objects() {
        let ec = EcScheme::new(4);
        let frags: Vec<Option<Vec<u8>>> = ec.encode(&[]).into_iter().map(Some).collect();
        assert_eq!(ec.reconstruct(0, &frags).unwrap(), Vec::<u8>::new());
        let frags: Vec<Option<Vec<u8>>> = ec.encode(&[7]).into_iter().map(Some).collect();
        assert_eq!(ec.reconstruct(1, &frags).unwrap(), vec![7]);
    }

    proptest! {
        #[test]
        fn prop_reconstruct_any_loss(
            data in prop::collection::vec(any::<u8>(), 0..500),
            k in 2usize..8,
            lost_sel in any::<usize>(),
        ) {
            let ec = EcScheme::new(k);
            let encoded = ec.encode(&data);
            prop_assert_eq!(encoded.len(), k + 1);
            let lost = lost_sel % ec.width();
            let mut frags: Vec<Option<Vec<u8>>> =
                encoded.into_iter().map(Some).collect();
            frags[lost] = None;
            prop_assert_eq!(ec.reconstruct(data.len(), &frags), Some(data));
        }
    }
}
