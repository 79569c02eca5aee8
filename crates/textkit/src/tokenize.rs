//! Tokenisation following the paper's §4.1 preprocessing.
//!
//! "We strip punctuation, convert to lower case characters, ignore numbers
//! and exclude stop words." Tokens are maximal runs of ASCII letters;
//! anything else is a separator. Purely numeric runs are dropped; mixed
//! alphanumerics keep their letters (forum jargon like `wts`, `tut`, `hmu`
//! survives; `50$` does not become a token).

/// A compact English stop-word list (the usual SMART-style core), adequate
/// for TF-IDF feature extraction over short forum headings and posts.
pub const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Returns true when `word` is in [`STOPWORDS`].
///
/// The list is sorted, so membership is a binary search.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// Tokenises `text`: lower-cased maximal alphabetic runs, numbers ignored,
/// punctuation treated as separators. Stop words are *kept* (use
/// [`tokenize_with_stopwords`] to drop them).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            cur.push(ch.to_ascii_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Tokenises and removes stop words — the exact §4.1 preprocessing.
pub fn tokenize_with_stopwords(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| !is_stopword(t))
        .collect()
}

/// Counts occurrences of `needle` as an ASCII-case-insensitive substring
/// of `haystack`: ASCII letters match either case, every other byte
/// (including all of a non-ASCII character's bytes) must match exactly.
/// Matches are counted left to right without overlap. Used for keyword
/// heuristics that must match inside bracket tags like `[TUT]` where
/// tokenisation would lose context.
///
/// Compares bytes in place and allocates nothing. A byte-level match of
/// a UTF-8 needle always starts on a character boundary, so the count
/// equals a search over the ASCII-lower-cased strings.
pub fn count_substring_ci(haystack: &str, needle: &str) -> usize {
    let (h, n) = (haystack.as_bytes(), needle.as_bytes());
    if n.is_empty() || n.len() > h.len() {
        return 0;
    }
    let first = n[0];
    let last_start = h.len() - n.len();
    let mut count = 0;
    let mut i = 0;
    while i <= last_start {
        if h[i].eq_ignore_ascii_case(&first) && h[i..i + n.len()].eq_ignore_ascii_case(n) {
            count += 1;
            i += n.len();
        } else {
            i += 1;
        }
    }
    count
}

/// Counts `ch` occurrences (e.g. question marks, a §4.1 feature).
pub fn count_char(text: &str, ch: char) -> usize {
    text.chars().filter(|&c| c == ch).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        assert_eq!(
            tokenize("Selling UNSATURATED pack!!! HMU"),
            vec!["selling", "unsaturated", "pack", "hmu"]
        );
    }

    #[test]
    fn numbers_are_ignored() {
        assert_eq!(tokenize("100 pics for $5"), vec!["pics", "for"]);
        assert_eq!(tokenize("pack2019"), vec!["pack"]);
    }

    #[test]
    fn stopwords_are_removed() {
        assert_eq!(
            tokenize_with_stopwords("I am selling a pack of the pics"),
            vec!["selling", "pack", "pics"]
        );
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("$$$ 123 ...").is_empty());
    }

    #[test]
    fn substring_count_is_case_insensitive_and_non_overlapping() {
        assert_eq!(count_substring_ci("[TUT] tut tutorial", "tut"), 3);
        assert_eq!(count_substring_ci("aaaa", "aa"), 2);
        assert_eq!(count_substring_ci("abc", ""), 0);
    }

    #[test]
    fn char_count() {
        assert_eq!(count_char("how to?? really?", '?'), 3);
    }

    #[test]
    fn is_stopword_agrees_with_list() {
        assert!(is_stopword("the"));
        assert!(!is_stopword("pack"));
    }
}
