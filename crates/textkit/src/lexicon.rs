//! The paper's keyword dictionaries (Table 2) and matching helpers.
//!
//! Table 2 defines five lexicons used throughout the methodology:
//!
//! | Purpose | Keywords |
//! |---|---|
//! | Extract eWhoring-related threads | `ewhor`, `e-whor` (substring, lowercase headings) |
//! | Classify Threads Offering Packs | `pack`, `packs`, …, `sexy` |
//! | Detect info-requesting posts | `[question]`, `[help]`, `need advice`, … |
//! | Detect tutorial threads | `tutorial`, `[tut]`, `howto`, … |
//! | Extract posts sharing earnings | `earn`, `profit`, `money`, `gain` |
//!
//! Matching is ASCII-case-insensitive: ASCII letters match in either
//! case, and non-ASCII bytes must match exactly. Multi-word entries are
//! matched as substrings (they include punctuation like `[tut]`, which
//! tokenisation would destroy); single-word entries are matched as whole
//! tokens to avoid e.g. `set` matching inside `settings`.
//!
//! The Table 2 lexicons are compiled once per process ([`Lexicon::top`]
//! and friends return `&'static` references), and matching allocates
//! nothing: tokens are scanned in place and substrings compared byte by
//! byte.

use crate::tokenize::count_substring_ci;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::OnceLock;

/// `ewhor` / `e-whor`: the heading keywords for extracting eWhoring threads.
pub const EWHORING_KEYWORDS: &[&str] = &["ewhor", "e-whor"];

/// TOP-classification keywords (paper Table 2, row 2).
pub const TOP_KEYWORDS: &[&str] = &[
    "pack",
    "packs",
    "package",
    "packages",
    "pics",
    "pictures",
    "videos",
    "vids",
    "video",
    "collection",
    "collections",
    "set",
    "sets",
    "repository",
    "repositories",
    "selling",
    "wts",
    "offering",
    "free",
    "unsaturated",
    "new",
    "giving",
    "compilation",
    "private",
    "girl",
    "girls",
    "sexy",
];

/// Info-requesting keywords (paper Table 2, row 3). Multi-word and
/// bracketed entries are substring-matched.
pub const REQUEST_KEYWORDS: &[&str] = &[
    "[question]",
    "[help]",
    "need advice",
    "need",
    "needed",
    "wtb",
    "want to buy",
    "req",
    "request",
    "question",
    "looking for",
    "give me advice",
    "quick question",
    "question for",
    "i wonder whether",
    "i wonder if",
    "im asking for",
    "general query",
    "general question",
    "i have a question",
    "i have a doubt",
    "help requested",
    "how to",
    "help please",
    "help with",
    "need help",
    "need a",
    "need some help",
    "help needed",
    "i want help",
    "help me",
    "seeking",
];

/// Tutorial keywords (paper Table 2, row 4).
pub const TUTORIAL_KEYWORDS: &[&str] = &[
    "tutorial",
    "[tut]",
    "howto",
    "how-to",
    "definite guide",
    "guide",
];

/// Earnings keywords (paper Table 2, row 5).
pub const EARNINGS_KEYWORDS: &[&str] = &["earn", "profit", "money", "gain"];

/// Additional §5.1 thread-heading cues for proof-of-earnings threads
/// ("you make" / "earn" in headings, e.g. "Post your earnings").
pub const EARNINGS_HEADING_PHRASES: &[&str] = &["you make", "earn"];

/// Trading-related terms used with `proof` in the §5.1 query.
pub const TRADING_KEYWORDS: &[&str] = &["selling", "wts", "offering", "buy", "price", "vouch"];

/// Alphabetic runs up to this length are lower-cased on the stack for
/// the word lookup; longer runs only occur with custom lexicons.
const WORD_BUF: usize = 32;

/// A compiled lexicon: single words matched as tokens, phrases as
/// substrings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lexicon {
    words: HashSet<String>,
    phrases: Vec<String>,
    /// Length of the longest word entry: a longer token cannot match.
    max_word_len: usize,
}

impl Lexicon {
    /// Compiles a keyword list, splitting entries into token-words and
    /// substring-phrases.
    pub fn new(keywords: &[&str]) -> Lexicon {
        let mut words = HashSet::new();
        let mut phrases = Vec::new();
        for &k in keywords {
            let lower = k.to_ascii_lowercase();
            let is_single_word = lower.chars().all(|c| c.is_ascii_alphabetic());
            if is_single_word {
                words.insert(lower);
            } else {
                phrases.push(lower);
            }
        }
        let max_word_len = words.iter().map(String::len).max().unwrap_or(0);
        Lexicon {
            words,
            phrases,
            max_word_len,
        }
    }

    /// The Table 2 TOP lexicon.
    pub fn top() -> &'static Lexicon {
        static LEXICON: OnceLock<Lexicon> = OnceLock::new();
        LEXICON.get_or_init(|| Lexicon::new(TOP_KEYWORDS))
    }

    /// The Table 2 info-requesting lexicon.
    pub fn request() -> &'static Lexicon {
        static LEXICON: OnceLock<Lexicon> = OnceLock::new();
        LEXICON.get_or_init(|| Lexicon::new(REQUEST_KEYWORDS))
    }

    /// The Table 2 tutorial lexicon.
    pub fn tutorial() -> &'static Lexicon {
        static LEXICON: OnceLock<Lexicon> = OnceLock::new();
        LEXICON.get_or_init(|| Lexicon::new(TUTORIAL_KEYWORDS))
    }

    /// The Table 2 earnings lexicon.
    pub fn earnings() -> &'static Lexicon {
        static LEXICON: OnceLock<Lexicon> = OnceLock::new();
        LEXICON.get_or_init(|| Lexicon::new(EARNINGS_KEYWORDS))
    }

    /// Counts lexicon hits in `text`: token matches for word entries plus
    /// substring matches for phrase entries. Tokens are the maximal ASCII
    /// alphabetic runs [`tokenize`](crate::tokenize::tokenize) yields,
    /// walked in place rather than collected.
    pub fn count_matches(&self, text: &str) -> usize {
        let bytes = text.as_bytes();
        let mut buf = [0u8; WORD_BUF];
        let mut token_hits = 0;
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_alphabetic() {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                i += 1;
            }
            token_hits += usize::from(self.has_word(&bytes[start..i], &mut buf));
        }
        let phrase_hits: usize = self
            .phrases
            .iter()
            .map(|p| count_substring_ci(text, p))
            .sum();
        token_hits + phrase_hits
    }

    /// True when the ASCII alphabetic `run`, lower-cased, is a word
    /// entry. `buf` is scratch space for the lower-cased run.
    fn has_word(&self, run: &[u8], buf: &mut [u8; WORD_BUF]) -> bool {
        if run.len() > self.max_word_len {
            return false;
        }
        let run = std::str::from_utf8(run).expect("an ASCII run is UTF-8");
        if run.len() > WORD_BUF {
            return self.words.contains(&run.to_ascii_lowercase());
        }
        let lower = &mut buf[..run.len()];
        lower.copy_from_slice(run.as_bytes());
        lower.make_ascii_lowercase();
        self.words
            .contains(std::str::from_utf8(lower).expect("an ASCII run is UTF-8"))
    }

    /// True when `text` contains at least one lexicon entry.
    pub fn matches(&self, text: &str) -> bool {
        self.count_matches(text) > 0
    }
}

/// True when a thread heading is eWhoring-related per the paper's §3 query:
/// lower-cased heading contains `ewhor` or `e-whor` as a substring.
pub fn heading_is_ewhoring(heading: &str) -> bool {
    EWHORING_KEYWORDS
        .iter()
        .any(|k| count_substring_ci(heading, k) > 0)
}

/// True when a heading matches the §5.1 proof-of-earnings heading query
/// (`you make` or `earn` in the heading).
pub fn heading_is_earnings(heading: &str) -> bool {
    EARNINGS_HEADING_PHRASES
        .iter()
        .any(|k| count_substring_ci(heading, k) > 0)
}

/// True when post text matches the §5.1 `proof` + trading-term query.
pub fn post_is_proof_offer(text: &str) -> bool {
    static TRADING: OnceLock<Lexicon> = OnceLock::new();
    count_substring_ci(text, "proof") > 0
        && TRADING
            .get_or_init(|| Lexicon::new(TRADING_KEYWORDS))
            .matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewhoring_heading_query_matches_variants() {
        assert!(heading_is_ewhoring("My first eWhoring method"));
        assert!(heading_is_ewhoring("E-WHORING guide 2017"));
        assert!(heading_is_ewhoring("best ewhore pack")); // 'ewhor' prefix
        assert!(!heading_is_ewhoring("selling fifa coins"));
    }

    #[test]
    fn top_lexicon_counts_tokens_not_substrings() {
        let lex = Lexicon::top();
        // 'set' must not fire inside 'settings'.
        assert_eq!(lex.count_matches("change your settings"), 0);
        assert_eq!(lex.count_matches("new set of pics"), 3); // new, set, pics
    }

    #[test]
    fn request_lexicon_matches_bracket_tags_and_phrases() {
        let lex = Lexicon::request();
        assert!(lex.matches("[QUESTION] how do i start"));
        assert!(lex.matches("im looking for a mentor"));
        assert!(lex.matches("WTB fresh pack"));
        assert!(!lex.matches("selling my collection"));
    }

    #[test]
    fn tutorial_lexicon() {
        let lex = Lexicon::tutorial();
        assert!(lex.matches("[TUT] ewhoring for beginners"));
        assert!(lex.matches("the definite guide"));
        assert!(!lex.matches("pack preview inside"));
    }

    #[test]
    fn earnings_queries() {
        assert!(heading_is_earnings("How much do you make?"));
        assert!(heading_is_earnings("post your earnings")); // 'earn' substring
        assert!(!heading_is_earnings("pack giveaway"));
        assert!(post_is_proof_offer("selling method, proof inside"));
        assert!(!post_is_proof_offer("proof of concept")); // no trading term
        assert!(!post_is_proof_offer("selling method, no evidence"));
    }

    #[test]
    fn counts_accumulate_over_repeats() {
        let lex = Lexicon::earnings();
        assert_eq!(lex.count_matches("money money money"), 3);
    }

    #[test]
    fn empty_text_matches_nothing() {
        assert_eq!(Lexicon::top().count_matches(""), 0);
        assert!(!heading_is_ewhoring(""));
    }

    // --- Equivalence with the allocating matchers these replaced ---

    /// The allocating `count_substring_ci`: lower-case both strings,
    /// then `str::find` left to right.
    fn oracle_count_substring_ci(haystack: &str, needle: &str) -> usize {
        if needle.is_empty() {
            return 0;
        }
        let h = haystack.to_ascii_lowercase();
        let n = needle.to_ascii_lowercase();
        let mut count = 0;
        let mut start = 0;
        while let Some(pos) = h[start..].find(&n) {
            count += 1;
            start += pos + n.len();
        }
        count
    }

    /// The allocating `Lexicon::count_matches`: tokenise into owned
    /// strings, then count phrases with the allocating counter.
    fn oracle_count_matches(lex: &Lexicon, text: &str) -> usize {
        let token_hits = crate::tokenize::tokenize(text)
            .iter()
            .filter(|t| lex.words.contains(t.as_str()))
            .count();
        let phrase_hits: usize = lex
            .phrases
            .iter()
            .map(|p| oracle_count_substring_ci(text, p))
            .sum();
        token_hits + phrase_hits
    }

    /// Every keyword list of this module, Table 2 and the trading terms.
    const ALL_LISTS: &[&[&str]] = &[
        EWHORING_KEYWORDS,
        TOP_KEYWORDS,
        REQUEST_KEYWORDS,
        TUTORIAL_KEYWORDS,
        EARNINGS_KEYWORDS,
        EARNINGS_HEADING_PHRASES,
        TRADING_KEYWORDS,
    ];

    /// Pieces a generated heading is assembled from: keywords of every
    /// list, near-misses, separators, digits and non-ASCII text whose
    /// case mapping is not ASCII (`é`, `ß`, `İ`, emoji).
    fn pieces() -> Vec<&'static str> {
        let mut pieces: Vec<&'static str> =
            ALL_LISTS.iter().flat_map(|l| l.iter().copied()).collect();
        pieces.extend([
            " ",
            " ",
            " ",
            "  ",
            "!",
            "?",
            "??",
            "[",
            "]",
            "-",
            "/",
            "100",
            "$5",
            "\n",
            "settings",
            "packed",
            "proof",
            "PROOF",
            "é",
            "ß",
            "İ",
            "İstanbul",
            "😀",
            "naïve",
            "straße",
            "aa",
            "aaa",
            "e",
            "whor",
            "tut",
            "[TUT]",
            "Need",
            "HOW TO",
        ]);
        pieces
    }

    /// Applies a seeded per-letter case flip, so keywords arrive in
    /// mixed case.
    fn mixed_case(text: &str, state: &mut u64) -> String {
        text.chars()
            .map(|c| {
                if synthrand::splitmix64(state) % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    /// A seeded heading of 1–12 pieces.
    fn generated_heading(pieces: &[&str], state: &mut u64) -> String {
        let n = 1 + (synthrand::splitmix64(state) % 12) as usize;
        let mut out = String::new();
        for _ in 0..n {
            let piece = pieces[(synthrand::splitmix64(state) % pieces.len() as u64) as usize];
            out.push_str(&mixed_case(piece, state));
        }
        out
    }

    #[test]
    fn substring_count_matches_oracle_on_fixed_cases() {
        let cases: &[(&str, &str)] = &[
            ("aaaa", "aa"),
            ("aaaaa", "aa"),
            ("AaAa", "aA"),
            ("short", "much longer needle"),
            ("", "x"),
            ("", ""),
            ("abc", ""),
            ("Éé é", "é"),
            ("STRASSE straße STRAßE", "straße"),
            ("ß", "ss"),
            ("İi İ", "i"),
            ("İi İ", "İ"),
            ("😀😀 x😀", "😀"),
            ("[TUT] tut tutorial", "tut"),
            ("e-WHORING E-whore", "e-whor"),
        ];
        for &(h, n) in cases {
            assert_eq!(
                count_substring_ci(h, n),
                oracle_count_substring_ci(h, n),
                "{h:?} / {n:?}"
            );
        }
        assert_eq!(count_substring_ci("aaaa", "aa"), 2);
        assert_eq!(count_substring_ci("ab", "abc"), 0);
        assert_eq!(count_substring_ci("abc", ""), 0);
        // Non-ASCII bytes match exactly: no Unicode case folding.
        assert_eq!(count_substring_ci("É", "é"), 0);
    }

    #[test]
    fn substring_count_matches_oracle_on_seeded_text() {
        let pieces = pieces();
        let mut state = 0x5EED_0001;
        for _ in 0..2_000 {
            let h = generated_heading(&pieces, &mut state);
            // Needles: a keyword-ish piece, or a slice of the haystack
            // itself (on a char boundary), possibly longer than it.
            let needle = match synthrand::splitmix64(&mut state) % 3 {
                0 => mixed_case(
                    pieces[(synthrand::splitmix64(&mut state) % pieces.len() as u64) as usize],
                    &mut state,
                ),
                1 => {
                    let chars: Vec<char> = h.chars().collect();
                    let a = (synthrand::splitmix64(&mut state) % (chars.len() as u64 + 1)) as usize;
                    let len = (synthrand::splitmix64(&mut state) % 4) as usize;
                    chars[a..(a + len).min(chars.len())].iter().collect()
                }
                _ => format!("{h}{h}"),
            };
            assert_eq!(
                count_substring_ci(&h, &needle),
                oracle_count_substring_ci(&h, &needle),
                "{h:?} / {needle:?}"
            );
        }
    }

    #[test]
    fn every_lexicon_matches_oracle_on_generated_headings() {
        let pieces = pieces();
        let lexicons: Vec<Lexicon> = ALL_LISTS.iter().map(|l| Lexicon::new(l)).collect();
        let statics = [
            Lexicon::top(),
            Lexicon::request(),
            Lexicon::tutorial(),
            Lexicon::earnings(),
        ];
        let mut state = 0x5EED_0002;
        for _ in 0..500 {
            let h = generated_heading(&pieces, &mut state);
            for lex in lexicons.iter().chain(statics) {
                assert_eq!(
                    lex.count_matches(&h),
                    oracle_count_matches(lex, &h),
                    "{h:?} with {lex:?}"
                );
            }
        }
    }

    #[test]
    fn long_word_entries_match_past_the_stack_buffer() {
        let long = "a".repeat(WORD_BUF + 8);
        let lex = Lexicon::new(&[long.as_str(), "pack"]);
        let text = format!(
            "{} PACK {}",
            long.to_ascii_uppercase(),
            "a".repeat(WORD_BUF + 9)
        );
        assert_eq!(lex.count_matches(&text), 2);
        assert_eq!(lex.count_matches(&text), oracle_count_matches(&lex, &text));
    }
}
