//! Pack and preview fabrication: hosted web objects, the reverse-search
//! index, Wayback snapshots, and planted hash-list images.
//!
//! Calibration targets (paper §4.2/§4.3/§4.5):
//!
//! * linked TOPs carry ≈8.7 preview links and ≈2.2 pack links (Tables 3/4
//!   row sums over 774 linked TOPs);
//! * packs hold ≈89 images each (111 288 images / 1 255 packs) with heavy
//!   duplication across packs (53 948 unique of 117 076 files; 127 images
//!   in ≥20 packs);
//! * pack images match reverse search ≈74% of the time, previews ≈49%
//!   (previews are edited harder), with ≈75–80% of matched images seen
//!   online before the forum post;
//! * ≈16% of packs are zero-match (self-made or tool-mirrored), strongly
//!   concentrated in a few producer actors;
//! * a small number of pack images sit on the CSAM hash list (36 at paper
//!   scale), clustered in a few threads.

use crate::config::WorldConfig;
use crate::truth::PackKind;
use imagesim::{Bitmap, ImageClass, ImageSpec, RobustHash, Transform};
use rand::rngs::StdRng;
use rand::Rng;
use revsearch::{IndexedImage, ReverseIndex, Wayback};
use safety::{HashList, HashListEntry, Severity};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use synthrand::{Day, LogNormal};
use websim::{
    HostedObject, LinkState, OriginRegistry, Site, SiteCatalog, SiteKind, StoredImage, WebStore,
};

/// A source image as it exists "on the web": the pristine spec, where it
/// lives, when it came online, and on how many sites.
#[derive(Debug, Clone)]
pub struct SourceImage {
    /// The pristine image.
    pub spec: ImageSpec,
    /// Whether reverse search has indexed any copy of it.
    pub indexed: bool,
    /// Number of indexed copies (sites).
    pub n_sites: u32,
    /// Date the earliest copy was crawled.
    pub first_crawled: Day,
}

/// Content attached to one TOP's initial post.
#[derive(Debug, Clone)]
pub struct TopContent {
    /// Lines to embed in the post body (preview + pack URLs).
    pub url_lines: Vec<String>,
    /// Pack records to register once the thread id is known:
    /// `(url, model, kind, n_images)`.
    pub packs: Vec<(textkit::Url, u32, PackKind, u32)>,
    /// Whether this TOP contains planted hash-list material.
    pub has_csam: bool,
}

/// A reverse-index entry drawn during the walk. `hash` is the slot of
/// its spec in the factory's [`Hasher`].
struct OwedIndexEntry {
    hash: usize,
    domain: u32,
    url: String,
    crawled: Day,
}

/// A hash-list entry drawn during the walk, its hash named by slot as in
/// [`OwedIndexEntry`].
struct OwedListEntry {
    hash: usize,
    case: u32,
    verifiable: bool,
    severity: Option<Severity>,
}

/// Fabricates packs, previews and their web presence.
///
/// The walk draws everything from the world's RNG but computes no robust
/// hash itself: rendering seeds its own RNG from the spec, so a hash
/// depends on the spec alone. Each spec the index or hash list needs is
/// owed once to a [`Hasher`], which hashes it on another thread while the
/// walk goes on; [`PackFactory::finish`] drains the rest on every core and
/// adds the entries in the order they were drawn.
pub struct PackFactory<'w> {
    catalog: &'w SiteCatalog,
    origins: &'w OriginRegistry,
    web: &'w mut WebStore,
    index: &'w mut ReverseIndex,
    wayback: &'w mut Wayback,
    hashlist: &'w mut HashList,
    /// Probability that a TOP carries open links at all (paper: 18.7%).
    pub p_linked: f64,
    /// Remaining hash-list images to plant.
    csam_budget: u32,
    /// Planted hash-list specs, handed to the caller by
    /// [`PackFactory::finish`] for the ground truth.
    csam_specs: Vec<ImageSpec>,
    /// Hashes the specs owed a robust hash, once each, in publication
    /// order.
    hasher: Hasher,
    /// Reverse-index entries in drawing order.
    owed_index: Vec<OwedIndexEntry>,
    /// Hash-list entries in drawing order.
    owed_hashlist: Vec<OwedListEntry>,
    /// Next fresh model id.
    next_model: u32,
    /// Next hash-list case id.
    next_case: u32,
    /// Expected number of TOP calls over the whole build (drives the
    /// adaptive planting rate so the CSAM budget always exhausts).
    expected_tops: u32,
    /// TOP calls made so far.
    tops_made: u32,
    /// Shared pool of already-published source images (drives saturation).
    shared_pool: Vec<SourceImage>,
    /// Running counter for unique URL paths.
    url_counter: u64,
    /// Dataset end (crawl dates must not exceed it).
    end: Day,
}

/// Mean images per pack (111 288 / 1 255 ≈ 89).
const PACK_SIZE_MEAN: f64 = 89.0;

impl<'w> PackFactory<'w> {
    /// Creates the factory.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: &WorldConfig,
        expected_tops: u32,
        catalog: &'w SiteCatalog,
        origins: &'w OriginRegistry,
        web: &'w mut WebStore,
        index: &'w mut ReverseIndex,
        wayback: &'w mut Wayback,
        hashlist: &'w mut HashList,
    ) -> PackFactory<'w> {
        PackFactory {
            catalog,
            origins,
            web,
            index,
            wayback,
            hashlist,
            p_linked: 0.187,
            csam_budget: config.csam_images,
            csam_specs: Vec::new(),
            hasher: Hasher::new(),
            owed_index: Vec::new(),
            owed_hashlist: Vec::new(),
            next_model: 1,
            next_case: 1,
            expected_tops: expected_tops.max(1),
            tops_made: 0,
            shared_pool: Vec::new(),
            url_counter: 0,
            end: config.dataset_end(),
        }
    }

    /// Number of hash-list images still unplanted.
    pub fn csam_remaining(&self) -> u32 {
        self.csam_budget
    }

    /// Hashes every owed spec the background worker has not reached, on
    /// all cores, then adds the recorded reverse-index and hash-list
    /// entries in drawing order. Returns the planted hash-list specs for
    /// the ground truth.
    pub fn finish(self) -> Vec<ImageSpec> {
        let hashes = self.hasher.finish();
        for e in self.owed_index {
            self.index.add(IndexedImage {
                hash: hashes[e.hash],
                domain: e.domain,
                url: e.url,
                crawled: e.crawled,
            });
        }
        for e in self.owed_hashlist {
            self.hashlist.add(HashListEntry {
                hash: hashes[e.hash],
                case: e.case,
                verifiable: e.verifiable,
                severity: e.severity,
            });
        }
        self.csam_specs
    }

    fn fresh_url(&mut self, rng: &mut StdRng, kind: SiteKind) -> (textkit::Url, &'static Site) {
        let site = self.catalog.sample(kind, rng);
        self.url_counter += 1;
        let path = match kind {
            SiteKind::ImageSharing => format!("/i/{:06x}", self.url_counter),
            SiteKind::CloudStorage => format!("/f/{:06x}", self.url_counter),
        };
        (textkit::Url::new(site.domain, path), site)
    }

    /// Publishes a fresh source image to the synthetic web: decides whether
    /// reverse search knows it, on how many sites, and when.
    ///
    /// `posted` is the forum date it will first be shared; `seen_before`
    /// controls whether its earliest crawl predates that.
    fn publish_source(
        &mut self,
        rng: &mut StdRng,
        spec: ImageSpec,
        posted: Day,
        force_unindexed: bool,
    ) -> SourceImage {
        // ~6% of stolen images come from corners of the web the index has
        // not crawled (private profiles etc.).
        let indexed = !force_unindexed && rng.gen_bool(0.94);
        if !indexed {
            return SourceImage {
                spec,
                indexed: false,
                n_sites: 0,
                first_crawled: posted,
            };
        }
        // Site count: log-normal with median 4 and σ=1.5 → mean ≈ 12
        // (Table 5 ratios of 12.7/17.3 matches per matched image), with a
        // tail reaching the paper's maxima (642 packs / 1 969 previews).
        let n_sites = (LogNormal::from_median(4.0, 1.5).sample(rng) as u32).clamp(1, 1_900);
        // The image came online before it was stolen; ~75-80% of matched
        // images have their earliest crawl before the forum post.
        let seen_before = rng.gen_bool(0.70);
        let first_crawled = if seen_before {
            Day(posted.0.saturating_sub(rng.gen_range(30..1500)))
        } else {
            // Crawled only after the forum post (TinEye lag).
            Day((posted.0 + rng.gen_range(10..700)).min(self.end.0))
        };
        let hash = self.hasher.owe(spec);
        for s in 0..n_sites {
            let domain_idx = self.origins.sample_source(rng) as u32;
            let domain = &self.origins.get(domain_idx as usize).name;
            let url = format!(
                "https://{domain}/p/{:x}-{s}",
                spec.variant ^ u64::from(spec.model) << 20
            );
            // Copies are crawled at or after the first crawl.
            let crawled = Day(
                (first_crawled.0 + if s == 0 { 0 } else { rng.gen_range(0..600) }).min(self.end.0),
            );
            self.owed_index.push(OwedIndexEntry {
                hash,
                domain: domain_idx,
                url: url.clone(),
                crawled,
            });
            // Wayback archives a subset of those URLs.
            if rng.gen_bool(0.4) {
                self.wayback
                    .record(&url, crawled.plus_days(rng.gen_range(0..90)));
            }
        }
        SourceImage {
            spec,
            indexed: true,
            n_sites,
            first_crawled,
        }
    }

    /// Draws the transform an uploader applies to a *pack* image.
    fn pack_transform(&self, rng: &mut StdRng, kind: PackKind) -> Transform {
        match kind {
            PackKind::MirroredAll => Transform::MirrorHorizontal,
            PackKind::SelfMade | PackKind::Standard | PackKind::Saturated => {
                match rng.gen_range(0..10) {
                    0..=4 => Transform::Identity,
                    5 | 6 => Transform::Noise {
                        amplitude: rng.gen_range(4..10),
                        seed: rng.gen(),
                    },
                    7 => Transform::Brightness(rng.gen_range(-20..20)),
                    8 => Transform::Watermark { seed: rng.gen() },
                    _ => Transform::MirrorHorizontal,
                }
            }
        }
    }

    /// Draws the (heavier) transform applied to a *preview* image. The
    /// paper finds previews match only 49% vs 74% for pack images because
    /// actors watermark/mirror the showcase copies.
    fn preview_transform(&self, rng: &mut StdRng, kind: PackKind) -> Transform {
        match kind {
            PackKind::MirroredAll => Transform::MirrorHorizontal,
            _ => match rng.gen_range(0..10) {
                0..=2 => Transform::Identity,
                3 | 4 => Transform::Watermark { seed: rng.gen() },
                5 => Transform::CropMargin {
                    percent: rng.gen_range(4..14),
                },
                6 => Transform::OcclusionBar { seed: rng.gen() },
                _ => Transform::MirrorHorizontal,
            },
        }
    }

    /// Builds the contents of one pack: mostly photos of one model,
    /// drawing from the shared pool for saturated material.
    fn build_pack_images(
        &mut self,
        rng: &mut StdRng,
        model: u32,
        kind: PackKind,
        posted: Day,
    ) -> (Vec<SourceImage>, Vec<StoredImage>) {
        let n = ((PACK_SIZE_MEAN * (0.3 + 1.4 * rng.gen::<f64>())) as u32).clamp(12, 260);
        let share_from_pool = match kind {
            PackKind::Saturated => 0.6,
            PackKind::Standard => 0.35,
            PackKind::SelfMade | PackKind::MirroredAll => 0.0,
        };
        let mut sources = Vec::with_capacity(n as usize);
        let mut stored = Vec::with_capacity(n as usize);
        for i in 0..n {
            let reuse = !self.shared_pool.is_empty() && rng.gen_bool(share_from_pool);
            let source = if reuse {
                // Popularity-biased reuse: earlier pool entries are the
                // most-shared material.
                let u: f64 = rng.gen();
                let idx = ((u * u * u) * self.shared_pool.len() as f64) as usize;
                self.shared_pool[idx.min(self.shared_pool.len() - 1)].clone()
            } else {
                let class = match i % 10 {
                    0..=2 => ImageClass::ModelDressed,
                    3..=6 => ImageClass::ModelNude,
                    _ => ImageClass::ModelSexual,
                };
                let spec = ImageSpec::model_photo(class, model, rng.gen());
                let src = self.publish_source(rng, spec, posted, kind == PackKind::SelfMade);
                self.shared_pool.push(src.clone());
                src
            };
            let transform = self.pack_transform(rng, kind);
            stored.push(StoredImage {
                spec: source.spec,
                transform,
            });
            sources.push(source);
        }
        (sources, stored)
    }

    /// Plants hash-list images into a pack's stored images, registering
    /// them with the hash list. Returns the planted specs.
    fn plant_csam(&mut self, rng: &mut StdRng, stored: &mut Vec<StoredImage>) -> Vec<ImageSpec> {
        if self.csam_budget == 0 {
            return Vec::new();
        }
        // One planted image per pack: the paper's 36 matches came from 36
        // different threads.
        let take = 1;
        let mut planted = Vec::new();
        for _ in 0..take {
            // Dedicated model-id space so planted images never collide
            // with ordinary material.
            let spec = ImageSpec::model_photo(
                ImageClass::ModelNude,
                9_000_000 + self.next_case,
                u64::from(self.next_case) * 7 + 3,
            );
            // Two verifiable cases exist (paper: a 17-year-old victim with
            // 60 URLs and one young child with 1); other entries are
            // non-actionable.
            let verifiable = !self.next_case.is_multiple_of(3);
            let severity = verifiable.then_some(match self.next_case % 5 {
                0 | 1 => Severity::A,
                4 => Severity::C,
                _ => Severity::B,
            });
            let hash = self.hasher.owe(spec);
            self.owed_hashlist.push(OwedListEntry {
                hash,
                case: self.next_case,
                verifiable,
                severity,
            });
            // The planted copy is shared essentially unmodified (mirroring
            // would evade the list, which the measurement relies on not
            // happening for these counts).
            stored.push(StoredImage {
                spec,
                transform: Transform::Identity,
            });
            // Stolen material circulates: reverse search knows further
            // copies, which the pipeline reports alongside the download
            // URL. The paper's 61 actioned URLs were dominated by a single
            // victim (60 URLs), so web presence concentrates on case 1.
            let n_copies = if self.next_case == 1 {
                30 + rng.gen_range(0..12)
            } else {
                rng.gen_range(0..2u32)
            };
            for c in 0..n_copies {
                let domain_idx = self.origins.sample_source(rng) as u32;
                let domain = &self.origins.get(domain_idx as usize).name;
                self.owed_index.push(OwedIndexEntry {
                    hash,
                    domain: domain_idx,
                    url: format!("https://{domain}/p/c{}-{c}", self.next_case),
                    crawled: Day(self.end.0.saturating_sub(rng.gen_range(100..1200))),
                });
            }
            planted.push(spec);
            self.next_case += 1;
            self.csam_budget -= 1;
        }
        planted
    }

    /// Link-state draw for a hosted object on `site`. Image hosts enforce
    /// their no-nudity terms aggressively (the paper found ~40% of preview
    /// downloads were removal banners or non-preview content); cloud hosts
    /// mostly lose links to rot.
    fn link_state(&self, rng: &mut StdRng, site: &Site) -> LinkState {
        let (tos_mul, rot_mul) = match site.kind {
            SiteKind::ImageSharing => (0.9, 0.45),
            SiteKind::CloudStorage => (0.45, 0.26),
        };
        if rng.gen_bool((site.tos_removal * tos_mul).min(1.0)) {
            LinkState::TosRemoved
        } else if rng.gen_bool((site.link_rot * rot_mul).min(1.0)) {
            LinkState::Dead
        } else {
            LinkState::Live
        }
    }

    /// Fabricates the web content for one TOP authored on `posted`.
    ///
    /// `zero_match_producer` marks authors who flip whole packs through
    /// mirroring tools (the paper's 47-zero-match-pack actor).
    pub fn make_top_content(
        &mut self,
        rng: &mut StdRng,
        posted: Day,
        zero_match_producer: bool,
        allow_csam: bool,
    ) -> TopContent {
        self.tops_made += 1;
        if !rng.gen_bool(self.p_linked) {
            // Reply-gated or paid TOP: no open links.
            return TopContent {
                url_lines: vec!["Reply to this thread to unlock the download link.".into()],
                packs: Vec::new(),
                has_csam: false,
            };
        }

        // The paper's most prolific zero-match actor had 47 of 100 packs
        // unmatched — producers flip *about half* their packs.
        let force_zero = zero_match_producer && rng.gen_bool(0.5);
        let kind = if force_zero {
            if rng.gen_bool(0.6) {
                PackKind::MirroredAll
            } else {
                PackKind::SelfMade
            }
        } else {
            match rng.gen_range(0..100) {
                0..=54 => PackKind::Standard,
                55..=89 => PackKind::Saturated,
                90..=94 => PackKind::MirroredAll,
                _ => PackKind::SelfMade,
            }
        };
        let model = self.next_model;
        self.next_model += 1;

        let (sources, mut stored) = self.build_pack_images(rng, model, kind, posted);
        // Adaptive planting: spread the hash-list budget over the expected
        // remaining linked TOPs, forcing p → 1 near the end so the budget
        // always exhausts when enough qualifying packs exist.
        let remaining_tops =
            f64::from(self.expected_tops.saturating_sub(self.tops_made - 1).max(1));
        let expected_linked_left = (remaining_tops * self.p_linked).max(1.0);
        let p_plant = (f64::from(self.csam_budget) * 1.6 / expected_linked_left).clamp(0.0, 1.0);
        let planted = if allow_csam
            && matches!(kind, PackKind::Standard | PackKind::Saturated)
            && self.csam_budget > 0
            && rng.gen_bool(p_plant)
        {
            self.plant_csam(rng, &mut stored)
        } else {
            Vec::new()
        };
        let has_csam = !planted.is_empty();
        self.csam_specs.extend(planted);

        let mut url_lines = Vec::new();
        let mut packs = Vec::new();

        // Pack links: 1–4 mirrors of the same archive on cloud hosts
        // (Tables 3/4: ≈2.2 cloud links per linked TOP).
        let n_pack_links = 1 + synthrand::skewed_count(rng, 0, 4);
        for _ in 0..n_pack_links {
            let (url, site) = self.fresh_url(rng, SiteKind::CloudStorage);
            let state = self.link_state(rng, site);
            self.web.host(
                url.clone(),
                HostedObject::Pack {
                    images: stored.clone(),
                },
                posted,
                state,
            );
            url_lines.push(format!("Download: {}", url.to_https()));
            packs.push((url, model, kind, stored.len() as u32));
        }

        // Preview links: ≈8.7 per linked TOP, hosted on image-sharing
        // sites, with heavier edits. Preview selection favours the pack's
        // most-shared source images.
        let n_previews = rng.gen_range(4..14usize);
        let mut by_popularity: Vec<&SourceImage> = sources.iter().collect();
        by_popularity.sort_by_key(|s| std::cmp::Reverse(s.n_sites));
        for _ in 0..n_previews {
            let (url, site) = self.fresh_url(rng, SiteKind::ImageSharing);
            let state = self.link_state(rng, site);
            // ~12% of "preview" links actually show a screenshot of the
            // pack's directory listing (§4.4 observes these among the
            // downloads that were not model previews).
            let stored = if rng.gen_bool(0.18) {
                self.url_counter += 1;
                StoredImage::pristine(ImageSpec::of(
                    ImageClass::DirectoryThumbnails,
                    self.url_counter,
                ))
            } else {
                // Mild popularity bias: previews come from the pack's
                // better-known images, but not exclusively the top few
                // (Table 5: preview ratio 17.3 vs pack ratio 12.7).
                let pick_from = (by_popularity.len() * 9 / 20).max(1);
                let src = by_popularity[rng.gen_range(0..pick_from)];
                StoredImage {
                    spec: src.spec,
                    transform: self.preview_transform(rng, kind),
                }
            };
            self.web
                .host(url.clone(), HostedObject::Image(stored), posted, state);
            url_lines.push(format!("Preview: {}", url.to_https()));
        }

        TopContent {
            url_lines,
            packs,
            has_csam,
        }
    }
}

/// Specs claimed per lock: large enough that the lock is rare next to
/// rendering and hashing them, small enough that the threads draining at
/// [`Hasher::finish`] share the tail evenly. The walk wakes the worker
/// each time this many more specs are owed.
const HASH_BATCH: usize = 16;

/// Renders and hashes owed specs on a background worker while the RNG
/// walk that owes them runs.
///
/// A hash is a pure function of its spec, so which thread computes it, and
/// when, changes nothing: every hash lands in its spec's slot. Dropping a
/// hasher without [`Hasher::finish`] (a panic mid-walk, a test that never
/// finishes) abandons the unclaimed specs and joins the worker.
struct Hasher {
    queue: Arc<HashQueue>,
    /// The background worker; taken by [`Hasher::finish`] or `Drop`.
    worker: Option<JoinHandle<()>>,
}

/// The queue a [`Hasher`] shares with the threads that hash for it.
struct HashQueue {
    state: Mutex<QueueState>,
    /// Signalled when specs arrive or the queue closes.
    more: Condvar,
}

struct QueueState {
    /// Owed specs; a spec's index is its slot.
    specs: Vec<ImageSpec>,
    /// The hash of each slot, once computed.
    hashes: Vec<Option<RobustHash>>,
    /// Slots below this are claimed by some thread.
    claimed: usize,
    /// No more specs will be owed.
    closed: bool,
}

impl Hasher {
    fn new() -> Hasher {
        let queue = Arc::new(HashQueue {
            state: Mutex::new(QueueState {
                specs: Vec::new(),
                hashes: Vec::new(),
                claimed: 0,
                closed: false,
            }),
            more: Condvar::new(),
        });
        let shared = Arc::clone(&queue);
        Hasher {
            queue,
            worker: Some(std::thread::spawn(move || shared.work())),
        }
    }

    /// Queues `spec` for hashing; returns its slot.
    fn owe(&mut self, spec: ImageSpec) -> usize {
        let slot = {
            let mut st = self.queue.lock();
            st.specs.push(spec);
            st.hashes.push(None);
            st.specs.len() - 1
        };
        if (slot + 1).is_multiple_of(HASH_BATCH) {
            self.queue.more.notify_one();
        }
        slot
    }

    /// Closes the queue, hashes what is left on this thread and
    /// `available_parallelism() − 1` helpers beside the background worker,
    /// and returns every hash by slot.
    fn finish(mut self) -> Vec<RobustHash> {
        self.queue.lock().closed = true;
        self.queue.more.notify_all();
        let helpers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| self.queue.work());
            }
            self.queue.work();
        });
        self.worker
            .take()
            .expect("the worker is joined only here or in Drop")
            .join()
            .expect("hash worker panicked");
        let st = self.queue.lock();
        st.hashes
            .iter()
            .map(|h| h.expect("every claimed slot is hashed before its claimer returns"))
            .collect()
    }
}

impl Drop for Hasher {
    fn drop(&mut self) {
        {
            // Every update under this lock leaves the state valid, so a
            // poisoned guard is safe to use; `Drop` must not panic.
            let mut st = self
                .queue
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.closed = true;
            st.claimed = st.specs.len();
        }
        self.queue.more.notify_all();
        if let Some(worker) = self.worker.take() {
            // A worker panic already surfaced, or is moot during unwinding.
            let _ = worker.join();
        }
    }
}

impl HashQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .expect("no thread panics while holding the hash queue")
    }

    /// Claims batches of unclaimed specs in slot order, renders each into
    /// one reused bitmap and stores its hash by slot. Waits for more specs
    /// while the queue is open; returns once it is closed and every slot
    /// is claimed.
    fn work(&self) {
        let mut bmp = Bitmap::canvas([0; 3]);
        let mut batch = Vec::with_capacity(HASH_BATCH);
        let mut hashes = Vec::with_capacity(HASH_BATCH);
        let mut st = self.lock();
        loop {
            if st.claimed == st.specs.len() {
                if st.closed {
                    return;
                }
                st = self
                    .more
                    .wait(st)
                    .expect("no thread panics while holding the hash queue");
                continue;
            }
            let start = st.claimed;
            let end = (start + HASH_BATCH).min(st.specs.len());
            st.claimed = end;
            batch.clear();
            batch.extend_from_slice(&st.specs[start..end]);
            drop(st);
            hashes.clear();
            hashes.extend(batch.iter().map(|spec: &ImageSpec| {
                spec.render_into(&mut bmp);
                Some(RobustHash::of(&bmp))
            }));
            st = self.lock();
            st.hashes[start..end].copy_from_slice(&hashes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthrand::rng_from_seed;

    struct Fixture {
        catalog: SiteCatalog,
        origins: OriginRegistry,
        web: WebStore,
        index: ReverseIndex,
        wayback: Wayback,
        hashlist: HashList,
        config: WorldConfig,
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut rng = rng_from_seed(77);
            Fixture {
                catalog: SiteCatalog::new(),
                origins: OriginRegistry::generate(
                    &mut rng,
                    200,
                    Day::from_ymd(2006, 1, 1),
                    Day::from_ymd(2019, 3, 1),
                ),
                web: WebStore::new(),
                index: ReverseIndex::new(),
                wayback: Wayback::new(),
                hashlist: HashList::new(),
                config: WorldConfig {
                    csam_images: 4,
                    ..WorldConfig::test_scale(77)
                },
            }
        }
    }

    #[test]
    fn linked_tops_host_packs_and_previews() {
        let mut fx = Fixture::new();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 1.0; // force links for the test
        let mut rng = rng_from_seed(1);
        let content = factory.make_top_content(&mut rng, Day::from_ymd(2015, 5, 1), false, false);
        assert!(!content.packs.is_empty());
        assert!(content.url_lines.iter().any(|l| l.contains("Download:")));
        assert!(content.url_lines.iter().any(|l| l.contains("Preview:")));
        factory.finish();
        assert!(!fx.web.is_empty());
        assert!(!fx.index.is_empty());
    }

    #[test]
    fn unlinked_tops_gate_behind_replies() {
        let mut fx = Fixture::new();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 0.0;
        let mut rng = rng_from_seed(2);
        let content = factory.make_top_content(&mut rng, Day::from_ymd(2015, 5, 1), false, false);
        assert!(content.packs.is_empty());
        assert_eq!(content.url_lines.len(), 1);
        assert!(content.url_lines[0].contains("Reply"));
    }

    #[test]
    fn csam_planting_respects_budget_and_registers_hashes() {
        let mut fx = Fixture::new();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 1.0;
        let mut rng = rng_from_seed(3);
        let mut planted_total = 0;
        for i in 0..40 {
            let c = factory.make_top_content(
                &mut rng,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                false,
                true,
            );
            if c.has_csam {
                planted_total += 1;
            }
        }
        assert_eq!(factory.csam_remaining(), 0);
        assert_eq!(factory.finish().len(), 4);
        assert!(planted_total >= 1);
        assert_eq!(fx.hashlist.len(), 4);
    }

    #[test]
    fn zero_match_producers_flip_about_half_their_packs() {
        let mut fx = Fixture::new();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 1.0;
        let mut rng = rng_from_seed(4);
        let mut zero = 0;
        let mut total = 0;
        for i in 0..30 {
            let content = factory.make_top_content(
                &mut rng,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                true,
                false,
            );
            for &(_, _, kind, _) in &content.packs {
                total += 1;
                if matches!(kind, PackKind::MirroredAll | PackKind::SelfMade) {
                    zero += 1;
                }
            }
        }
        // Producers flip ~50% (plus the base ~10% from the normal draw).
        let share = f64::from(zero) / f64::from(total);
        assert!((0.3..0.85).contains(&share), "zero-match share {share}");
    }

    #[test]
    fn index_and_wayback_dates_stay_in_range() {
        let mut fx = Fixture::new();
        let end = fx.config.dataset_end();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 1.0;
        let mut rng = rng_from_seed(5);
        for _ in 0..5 {
            factory.make_top_content(&mut rng, Day::from_ymd(2018, 12, 1), false, false);
        }
        factory.finish();
        assert!(!fx.index.is_empty());
        for i in 0..fx.index.len() {
            assert!(fx.index.entry(i as u32).crawled <= end);
        }
    }

    #[test]
    fn pack_sizes_hover_around_paper_mean() {
        let mut fx = Fixture::new();
        let mut factory = PackFactory::new(
            &fx.config,
            40,
            &fx.catalog,
            &fx.origins,
            &mut fx.web,
            &mut fx.index,
            &mut fx.wayback,
            &mut fx.hashlist,
        );
        factory.p_linked = 1.0;
        let mut rng = rng_from_seed(6);
        let mut sizes = Vec::new();
        for _ in 0..40 {
            let c = factory.make_top_content(&mut rng, Day::from_ymd(2015, 1, 1), false, false);
            for (_, _, _, n) in c.packs {
                sizes.push(n as f64);
            }
        }
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        // 111 288 / 1 255 ≈ 89 images per pack.
        assert!((60.0..120.0).contains(&mean), "mean pack size {mean}");
    }

    #[test]
    fn hasher_matches_direct_hashes_across_uneven_bursts() {
        let mut rng = rng_from_seed(8);
        let specs: Vec<ImageSpec> = (0..150)
            .map(|i| {
                if i % 5 == 0 {
                    ImageSpec::of(ImageClass::DirectoryThumbnails, rng.gen())
                } else {
                    ImageSpec::model_photo(ImageClass::ModelNude, rng.gen_range(1..40), rng.gen())
                }
            })
            .collect();
        let mut hasher = Hasher::new();
        let mut owed = 0;
        for burst in [1, 15, 16, 17, 3, 40, 2, 33, 23] {
            for spec in &specs[owed..owed + burst] {
                assert_eq!(hasher.owe(*spec), owed);
                owed += 1;
            }
            // Wait for the worker to claim up to the last wake, so part of
            // the list is hashed during the walk and the rest at `finish`.
            let woken = owed / HASH_BATCH * HASH_BATCH;
            while hasher.queue.lock().claimed < woken {
                std::thread::yield_now();
            }
        }
        assert_eq!(owed, specs.len());
        let hashes = hasher.finish();
        assert_eq!(hashes.len(), specs.len());
        for (slot, (spec, hash)) in specs.iter().zip(&hashes).enumerate() {
            assert_eq!(*hash, RobustHash::of(&spec.render()), "slot {slot}");
        }
    }

    #[test]
    fn hasher_with_nothing_owed_finishes_empty() {
        assert!(Hasher::new().finish().is_empty());
    }

    #[test]
    fn factory_dropped_mid_walk_joins_its_worker() {
        let (done, dropped) = std::sync::mpsc::channel();
        let walker = std::thread::spawn(move || {
            let mut fx = Fixture::new();
            let mut factory = PackFactory::new(
                &fx.config,
                40,
                &fx.catalog,
                &fx.origins,
                &mut fx.web,
                &mut fx.index,
                &mut fx.wayback,
                &mut fx.hashlist,
            );
            factory.p_linked = 1.0;
            let mut rng = rng_from_seed(7);
            for _ in 0..3 {
                factory.make_top_content(&mut rng, Day::from_ymd(2015, 3, 1), false, false);
            }
            let queue = Arc::clone(&factory.hasher.queue);
            drop(factory);
            // The worker's handle on the queue goes only when it returns.
            done.send(Arc::strong_count(&queue))
                .expect("the test waits for the drop");
        });
        let handles = dropped
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("dropping a factory mid-walk hung");
        assert_eq!(handles, 1, "the worker still holds the queue");
        walker.join().expect("walk thread panicked");
    }
}
