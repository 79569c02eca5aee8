//! The reverse-image index (TinEye analogue).

use imagesim::{RobustHash, DEFAULT_MATCH_THRESHOLD};
use serde::{Deserialize, Serialize};
use synthrand::Day;

/// One image known to the reverse-search crawler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexedImage {
    /// Perceptual hash of the crawled image.
    pub hash: RobustHash,
    /// Index of the hosting domain in the origin registry.
    pub domain: u32,
    /// URL where the image is (or was) hosted.
    pub url: String,
    /// Date the reverse-search crawler indexed this copy.
    pub crawled: Day,
}

/// One query match, in TinEye report shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Match {
    /// Index into the reverse index's entry list.
    pub entry: u32,
    /// Hosting domain (origin-registry index).
    pub domain: u32,
    /// URL of the matched copy.
    pub url: String,
    /// Crawl date of the matched copy.
    pub crawled: Day,
    /// Similarity score in `(0, 1]`: `1 - distance/256`. The paper treats
    /// any score greater than zero as a match.
    pub similarity: f64,
}

/// A perceptual-hash index that compares each run of equal hashes once.
///
/// TinEye's scale needs sharded search. Here the index holds tens of
/// thousands of entries but only a few thousand distinct hashes: each
/// published image adds all its copies contiguously, under one hash. So
/// beside the entries the index keeps one `(hash, first entry id)` per
/// maximal run of consecutive entries sharing a hash, and a query
/// computes one 256-bit Hamming distance per run. Every entry of a run
/// has its run's distance, so the result is the exhaustive scan's.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReverseIndex {
    entries: Vec<IndexedImage>,
    /// `(hash, first entry id)` of each maximal run of consecutive
    /// entries with one hash, in entry order.
    runs: Vec<(RobustHash, u32)>,
}

impl ReverseIndex {
    /// An empty index.
    pub fn new() -> ReverseIndex {
        ReverseIndex::default()
    }

    /// Adds a crawled image, extending the last run when it shares its
    /// hash.
    pub fn add(&mut self, image: IndexedImage) {
        if self.runs.last().is_none_or(|&(hash, _)| hash != image.hash) {
            self.runs.push((image.hash, self.entries.len() as u32));
        }
        self.entries.push(image);
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry access by id.
    pub fn entry(&self, id: u32) -> &IndexedImage {
        &self.entries[id as usize]
    }

    /// Queries with the default threshold.
    pub fn query(&self, hash: &RobustHash) -> Vec<Match> {
        self.query_with_threshold(hash, DEFAULT_MATCH_THRESHOLD)
    }

    /// Queries with an explicit Hamming threshold, returning matches
    /// ordered by ascending distance (stable on entry order for ties).
    pub fn query_with_threshold(&self, hash: &RobustHash, threshold: u32) -> Vec<Match> {
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (r, (run_hash, first)) in self.runs.iter().enumerate() {
            let d = hash.distance(run_hash);
            if d <= threshold {
                let end = self
                    .runs
                    .get(r + 1)
                    .map_or(self.entries.len() as u32, |&(_, next)| next);
                hits.extend((*first..end).map(|i| (d, i)));
            }
        }
        hits.sort_unstable();
        hits.into_iter()
            .map(|(d, i)| {
                let e = &self.entries[i as usize];
                Match {
                    entry: i,
                    domain: e.domain,
                    url: e.url.clone(),
                    crawled: e.crawled,
                    similarity: 1.0 - f64::from(d) / 256.0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagesim::{ImageClass, ImageSpec, Transform};
    use rand::Rng;

    fn hash_of(model: u32, variant: u64) -> RobustHash {
        RobustHash::of(&ImageSpec::model_photo(ImageClass::ModelNude, model, variant).render())
    }

    fn indexed(model: u32, variant: u64, domain: u32, day: Day) -> IndexedImage {
        IndexedImage {
            hash: hash_of(model, variant),
            domain,
            url: format!("https://d{domain}.example/img/{model}-{variant}"),
            crawled: day,
        }
    }

    fn day(y: i32, m: u32) -> Day {
        Day::from_ymd(y, m, 1)
    }

    #[test]
    fn exact_copy_matches_with_similarity_one() {
        let mut idx = ReverseIndex::new();
        idx.add(indexed(1, 10, 0, day(2012, 1)));
        let hits = idx.query(&hash_of(1, 10));
        assert_eq!(hits.len(), 1);
        assert!((hits[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edited_copy_still_matches() {
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 2, 20);
        let mut idx = ReverseIndex::new();
        idx.add(IndexedImage {
            hash: RobustHash::of(&spec.render()),
            domain: 1,
            url: "https://tube1.example/a".into(),
            crawled: day(2013, 5),
        });
        let edited = Transform::Watermark { seed: 3 }.apply(&spec.render());
        let hits = idx.query(&RobustHash::of(&edited));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].similarity < 1.0 && hits[0].similarity > 0.9);
    }

    #[test]
    fn mirrored_copy_does_not_match() {
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 3, 30);
        let mut idx = ReverseIndex::new();
        idx.add(IndexedImage {
            hash: RobustHash::of(&spec.render()),
            domain: 1,
            url: "https://tube1.example/b".into(),
            crawled: day(2013, 5),
        });
        let mirrored = Transform::MirrorHorizontal.apply(&spec.render());
        assert!(idx.query(&RobustHash::of(&mirrored)).is_empty());
    }

    #[test]
    fn unrelated_images_do_not_match() {
        let mut idx = ReverseIndex::new();
        for v in 0..20 {
            idx.add(indexed(v as u32 + 100, v, v as u32, day(2011, 1)));
        }
        assert!(idx.query(&hash_of(999, 999)).is_empty());
    }

    #[test]
    fn matches_are_sorted_by_distance() {
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 4, 40);
        let base = spec.render();
        let mut idx = ReverseIndex::new();
        idx.add(IndexedImage {
            hash: RobustHash::of(
                &Transform::Noise {
                    amplitude: 10,
                    seed: 1,
                }
                .apply(&base),
            ),
            domain: 0,
            url: "https://a.example/1".into(),
            crawled: day(2010, 1),
        });
        idx.add(IndexedImage {
            hash: RobustHash::of(&base),
            domain: 1,
            url: "https://b.example/2".into(),
            crawled: day(2011, 1),
        });
        let hits = idx.query(&RobustHash::of(&base));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].url, "https://b.example/2");
        assert!(hits[0].similarity >= hits[1].similarity);
    }

    #[test]
    fn same_image_on_many_domains_yields_many_matches() {
        // The paper reports previews matching on average 17.3 sites.
        let mut idx = ReverseIndex::new();
        for d in 0..17 {
            idx.add(indexed(5, 50, d, day(2012, 3)));
        }
        assert_eq!(idx.query(&hash_of(5, 50)).len(), 17);
    }

    #[test]
    fn threshold_zero_requires_exact_hash() {
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 6, 60);
        let base = spec.render();
        let mut idx = ReverseIndex::new();
        idx.add(IndexedImage {
            hash: RobustHash::of(&base),
            domain: 0,
            url: "https://x.example/1".into(),
            crawled: day(2012, 1),
        });
        let noisy = Transform::Noise {
            amplitude: 10,
            seed: 2,
        }
        .apply(&base);
        assert!(idx
            .query_with_threshold(&RobustHash::of(&noisy), 0)
            .is_empty());
        assert_eq!(idx.query_with_threshold(&RobustHash::of(&base), 0).len(), 1);
    }

    /// The exhaustive scan the run index replaces: every entry's own
    /// distance, sorted by `(distance, id)`, as `(id, similarity bits)`.
    fn brute_force(idx: &ReverseIndex, hash: &RobustHash, threshold: u32) -> Vec<(u32, u64)> {
        let mut hits: Vec<(u32, u32)> = (0..idx.len() as u32)
            .map(|i| (hash.distance(&idx.entry(i).hash), i))
            .filter(|&(d, _)| d <= threshold)
            .collect();
        hits.sort_unstable();
        hits.into_iter()
            .map(|(d, i)| (i, (1.0 - f64::from(d) / 256.0).to_bits()))
            .collect()
    }

    fn flip_bits(hash: RobustHash, rng: &mut rand::rngs::StdRng, n: u32) -> RobustHash {
        let mut out = hash;
        for _ in 0..n {
            let b = rng.gen_range(0..256usize);
            out.bits[b / 64] ^= 1 << (b % 64);
        }
        out
    }

    #[test]
    fn run_query_equals_exhaustive_scan() {
        // `safety::SAFETY_MATCH_THRESHOLD`; this crate does not depend on
        // `safety`.
        const SAFETY_THRESHOLD: u32 = 8;
        let (mut long_runs, mut singles, mut repeats) = (0, 0, 0);
        for seed in 0..12 {
            let mut rng = synthrand::rng_from_seed(0x1D3 + seed);
            // Base hashes plus near neighbours, so every threshold both
            // admits and rejects some runs.
            let mut pool = Vec::new();
            for _ in 0..10 {
                let base = RobustHash {
                    bits: [rng.gen(), rng.gen(), rng.gen(), rng.gen()],
                };
                pool.push(base);
                for _ in 0..3 {
                    let n = rng.gen_range(1..30);
                    pool.push(flip_bits(base, &mut rng, n));
                }
            }
            let mut idx = ReverseIndex::new();
            let mut run_hashes: Vec<RobustHash> = Vec::new();
            for _ in 0..rng.gen_range(1..80) {
                let hash = pool[rng.gen_range(0..pool.len())];
                let copies = if rng.gen_bool(0.4) {
                    1
                } else {
                    rng.gen_range(2..8)
                };
                for _ in 0..copies {
                    idx.add(IndexedImage {
                        hash,
                        domain: rng.gen_range(0..50),
                        url: format!("https://d.example/{}", idx.len()),
                        crawled: Day(rng.gen_range(0..5_000)),
                    });
                }
                if run_hashes.last() == Some(&hash) {
                    continue;
                }
                if run_hashes.contains(&hash) {
                    repeats += 1;
                }
                if copies == 1 {
                    singles += 1;
                } else {
                    long_runs += 1;
                }
                run_hashes.push(hash);
            }
            let mut queries = pool.clone();
            for &h in &pool {
                let n = rng.gen_range(0..24);
                queries.push(flip_bits(h, &mut rng, n));
            }
            queries.push(RobustHash {
                bits: [rng.gen(), rng.gen(), rng.gen(), rng.gen()],
            });
            for q in &queries {
                for threshold in [0, DEFAULT_MATCH_THRESHOLD, SAFETY_THRESHOLD, 256] {
                    let hits = idx.query_with_threshold(q, threshold);
                    let got: Vec<(u32, u64)> = hits
                        .iter()
                        .map(|m| (m.entry, m.similarity.to_bits()))
                        .collect();
                    assert_eq!(got, brute_force(&idx, q, threshold), "seed {seed}");
                    for m in &hits {
                        let e = idx.entry(m.entry);
                        assert_eq!((m.domain, &m.url, m.crawled), (e.domain, &e.url, e.crawled));
                    }
                }
            }
        }
        assert!(long_runs > 50 && singles > 50 && repeats > 50);
    }

    #[test]
    fn empty_index_returns_no_matches() {
        assert!(ReverseIndex::new().query(&hash_of(1, 1)).is_empty());
    }
}
