//! Splits KISS-C source into its top-level items with one byte scan.
//!
//! An item is a struct (with its optional trailing `;`), a global (up
//! to its `;`), or a function: its header up to the body's `{`, then a
//! body the scan skips by brace depth. The scan follows the lexer's
//! comment rules, so a brace or `;` inside a comment splits nothing.
//! Item boundaries fall only at token boundaries: an item starts at
//! the first byte after whitespace and comments, and ends after a `;`
//! or `}` or before a `{`, which are always single-byte tokens. So the
//! items' token streams, concatenated, are the whole source's.
//!
//! When the scan is unsure — an unbalanced brace, an unterminated
//! comment, text after which no `;` or `{` comes — [`split`] returns
//! `None` and the caller takes the whole source as one item.

use std::ops::Range;

use crate::span::Span;

/// One top-level item.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Item {
    /// The item's text: for a function, its header up to the body.
    pub text: Range<usize>,
    /// Where `text` starts.
    pub at: Span,
    /// A function's body, from its `{` through the matching `}`.
    pub body: Option<(Range<usize>, Span)>,
}

/// Splits `src` into items, or `None` when the scan is unsure.
pub(crate) fn split(src: &str) -> Option<Vec<Item>> {
    let mut scan = Scan {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        counted: 0,
    };
    let mut items = Vec::new();
    loop {
        scan.skip_trivia()?;
        if scan.pos == scan.bytes.len() {
            return Some(items);
        }
        let start = scan.pos;
        let at = scan.span();
        let is_struct = scan.bytes[start..].starts_with(b"struct")
            && !scan
                .bytes
                .get(start + 6)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        match scan.skip_to_item_end()? {
            b';' => items.push(Item {
                text: start..scan.pos,
                at,
                body: None,
            }),
            _ if is_struct => {
                scan.skip_block()?;
                // The optional `;` after a struct belongs to it.
                let end = scan.pos;
                scan.skip_trivia()?;
                let end = if scan.bytes.get(scan.pos) == Some(&b';') {
                    scan.pos += 1;
                    scan.pos
                } else {
                    end
                };
                items.push(Item {
                    text: start..end,
                    at,
                    body: None,
                });
            }
            _ => {
                let header = start..scan.pos;
                let body_at = scan.span();
                let body_start = scan.pos;
                scan.skip_block()?;
                items.push(Item {
                    text: header,
                    at,
                    body: Some((body_start..scan.pos, body_at)),
                });
            }
        }
    }
}

struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// 1-based line of `counted`.
    line: u32,
    /// Newlines are counted up to here, lazily, when a span is taken.
    counted: usize,
}

impl Scan<'_> {
    /// The lexer's position of `pos`: its column counts chars, so a
    /// UTF-8 continuation byte does not advance it.
    fn span(&mut self) -> Span {
        let seen = &self.bytes[self.counted..self.pos];
        self.line += seen.iter().filter(|&&b| b == b'\n').count() as u32;
        self.counted = self.pos;
        let line_start = self.bytes[..self.pos]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let col = self.bytes[line_start..self.pos]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        Span::new(self.line, col as u32 + 1)
    }

    /// Whether a comment opens at `pos`.
    fn at_comment(&self) -> bool {
        self.bytes[self.pos] == b'/' && matches!(self.bytes.get(self.pos + 1), Some(b'/' | b'*'))
    }

    /// Skips ASCII whitespace and comments; `None` on an unterminated
    /// block comment.
    fn skip_trivia(&mut self) -> Option<()> {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C => self.pos += 1,
                b'/' if self.at_comment() => self.skip_comment()?,
                _ => break,
            }
        }
        Some(())
    }

    /// Skips the comment at `pos` exactly as the lexer does: a line
    /// comment through its newline (or the end), a block comment through
    /// the first `*/` after its opening `/*`.
    fn skip_comment(&mut self) -> Option<()> {
        let rest = &self.bytes[self.pos + 2..];
        let len = if self.bytes[self.pos + 1] == b'/' {
            rest.iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |i| i + 1)
        } else {
            rest.windows(2).position(|w| w == b"*/")? + 2
        };
        self.pos += 2 + len;
        Some(())
    }

    /// Advances to the next `;`, `{` or `}` outside comments and returns
    /// it, or `None` at the end of input or an unterminated comment.
    fn skip_to_stop(&mut self) -> Option<u8> {
        loop {
            self.pos += find_stop(&self.bytes[self.pos..])?;
            match self.bytes[self.pos] {
                b'/' if self.at_comment() => self.skip_comment()?,
                b'/' => self.pos += 1,
                b => return Some(b),
            }
        }
    }

    /// Advances to the first `;` (consumed) or `{` (not consumed)
    /// outside comments and returns it; `None` at a `}` or the end.
    fn skip_to_item_end(&mut self) -> Option<u8> {
        match self.skip_to_stop()? {
            b';' => {
                self.pos += 1;
                Some(b';')
            }
            b'{' => Some(b'{'),
            _ => None,
        }
    }

    /// Skips the brace block opening at `pos` through its matching `}`.
    fn skip_block(&mut self) -> Option<()> {
        let mut depth = 0usize;
        loop {
            let b = self.skip_to_stop()?;
            self.pos += 1;
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(());
                    }
                }
                _ => {}
            }
        }
    }
}

/// The index of the first byte the scan stops at: `;`, `{`, `}`, or
/// `/`, which may open a comment. It tests eight bytes at a time: a
/// byte equal to the sought one is zero after an xor, and the lowest
/// zero byte of a word sets the lowest bit of
/// `(x - 0x01…01) & !x & 0x80…80` (a borrow only marks bytes above it).
fn find_stop(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = zero_bytes(w ^ (ONES * u64::from(b';')))
            | zero_bytes(w ^ (ONES * u64::from(b'{')))
            | zero_bytes(w ^ (ONES * u64::from(b'}')))
            | zero_bytes(w ^ (ONES * u64::from(b'/')));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let stop = |&b: &u8| matches!(b, b';' | b'{' | b'}' | b'/');
    words.remainder().iter().position(stop).map(|i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(String, Option<String>)> {
        split(src)
            .expect("scan is sure")
            .into_iter()
            .map(|it| {
                (
                    src[it.text].to_string(),
                    it.body.map(|(b, _)| src[b].to_string()),
                )
            })
            .collect()
    }

    #[test]
    fn splits_structs_globals_and_functions() {
        let got = texts("struct D { int f; };\nint g = 1;\nvoid main() { g = 2; }\n// tail");
        assert_eq!(
            got,
            vec![
                ("struct D { int f; };".to_string(), None),
                ("int g = 1;".to_string(), None),
                ("void main() ".to_string(), Some("{ g = 2; }".to_string())),
            ]
        );
    }

    #[test]
    fn a_struct_without_semicolon_ends_at_its_brace() {
        let got = texts("struct D { int f; } int g;");
        assert_eq!(got[0].0, "struct D { int f; }");
        assert_eq!(got[1].0, "int g;");
    }

    #[test]
    fn braces_and_semicolons_in_comments_split_nothing() {
        let got = texts("void f() { /* } ; */ skip; // }\n } int g;");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.as_deref(), Some("{ /* } ; */ skip; // }\n }"));
    }

    #[test]
    fn nested_blocks_are_skipped_by_depth() {
        let got = texts("void f() { iter { atomic { skip; } } } void main() { }");
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0, "void main() ");
    }

    #[test]
    fn positions_match_the_lexer() {
        let src = "int g;\n/* é */ void main() {\n  skip; }";
        let items = split(src).unwrap();
        assert_eq!(items[0].at, Span::new(1, 1));
        assert_eq!(items[1].at, Span::new(2, 9));
        assert_eq!(items[1].body.as_ref().unwrap().1, Span::new(2, 21));
    }

    #[test]
    fn the_word_search_finds_the_first_stop_byte() {
        // Every stop byte at every offset of a word and of the tail,
        // after bytes one off from the stops (a borrow that crosses
        // bytes must not mark an earlier one).
        let filler = [b':', b'<', b'z', b'|', b'~', b'.', b'0', 0x01, 0x80, 0xFF];
        for len in 1..=24 {
            for stop in 0..len {
                for &b in b";{}/" {
                    let mut bytes: Vec<u8> = (0..len).map(|i| filler[i % filler.len()]).collect();
                    bytes[stop] = b;
                    bytes.extend_from_slice(b";/");
                    assert_eq!(find_stop(&bytes), Some(stop), "{bytes:?}");
                }
            }
            let bytes: Vec<u8> = (0..len).map(|i| filler[i % filler.len()]).collect();
            assert_eq!(find_stop(&bytes), None);
        }
    }

    #[test]
    fn an_unsure_scan_gives_up() {
        for src in [
            "void main() { skip; ",
            "void main() { } }",
            "int g",
            "void main() { /* }",
            "int g; /* open",
        ] {
            assert_eq!(split(src), None, "{src}");
        }
        assert_eq!(split("   // only a comment").unwrap(), vec![]);
    }
}
