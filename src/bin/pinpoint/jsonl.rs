//! Line-delimited JSON plumbing shared by the serve transports and the
//! `top` dashboard client: frame reading with an allocation cap, a small
//! recursive JSON value parser (the response side, whose documents nest)
//! with a flat-object view over it (the request side), and the
//! [`SourceMemo`] a serve transport decodes each session's `source`
//! strings through, so that decoding an edited program costs the edit.

use pinpoint::ir::{common_prefix, common_suffix};
use std::ops::Range;
use std::sync::Arc;

/// Longest request line a serve transport will buffer (1 MiB). Longer
/// lines are drained and rejected without allocating for them, and the
/// stream resynchronizes at the next newline.
pub const MAX_SERVE_LINE: usize = 1 << 20;

/// Bytes a serve transport reads from its stream at a time: a 0.5 MB
/// `update` frame is eight reads, not sixty-four.
pub const READ_CHUNK: usize = 1 << 16;

/// The error of a frame that is not UTF-8, which takes precedence over
/// every other error of the frame.
pub const NOT_UTF8: &str = "request is not valid UTF-8";

/// One input frame.
pub enum Frame {
    /// A complete line, now in the caller's buffer without its newline.
    Line,
    /// The line exceeded [`MAX_SERVE_LINE`]; its bytes were discarded.
    Oversized,
    /// End of input.
    Eof,
}

/// Reads one newline-delimited frame into `line` without assuming valid
/// UTF-8 and without buffering more than `cap` bytes — the remainder of
/// an oversized line is consumed and thrown away so the next frame
/// starts clean. `line` is the connection's one buffer, cleared here and
/// reused from frame to frame; the newline is found a block at a time
/// ([`first_of`]).
pub fn read_frame(
    input: &mut impl std::io::BufRead,
    cap: usize,
    line: &mut Vec<u8>,
) -> Result<Frame, String> {
    line.clear();
    let mut oversized = false;
    loop {
        let chunk = input
            .fill_buf()
            .map_err(|e| format!("cannot read input: {e}"))?;
        if chunk.is_empty() {
            return Ok(if oversized {
                Frame::Oversized
            } else if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Line
            });
        }
        let newline = first_of(chunk, [b'\n']);
        let (take, consumed) = newline.map_or((chunk.len(), chunk.len()), |i| (i, i + 1));
        if !oversized {
            line.extend_from_slice(&chunk[..take]);
            if line.len() > cap {
                oversized = true;
                line.clear();
            }
        }
        input.consume(consumed);
        if newline.is_some() {
            return Ok(if oversized {
                Frame::Oversized
            } else {
                Frame::Line
            });
        }
    }
}

/// Parses one *flat* JSON object (`{"k":"v",...}`) into key/value pairs.
/// String values are unescaped; numbers, booleans, and `null` are kept
/// as their literal text. Enough JSON for the serve protocol — nested
/// objects and arrays are rejected.
pub fn parse_json_object(line: &str) -> Result<Vec<(String, String)>, String> {
    Ok(parse_flat(line.as_bytes(), false)?.fields)
}

/// A request frame parsed as a flat object whose first `source` field, if
/// its value is a string, was left escaped for a [`SourceMemo`].
pub struct RequestFrame {
    /// The fields in frame order; the escaped `source` field's value is
    /// empty.
    pub fields: Vec<(String, String)>,
    /// Where the escaped string's bytes after its opening quote, closing
    /// quote included, lie in the frame.
    pub source: Option<Range<usize>>,
}

/// [`parse_json_object`] of a frame that was not checked to be UTF-8 as a
/// whole: every byte it decodes is checked, and the first `source`
/// string's end is found by its quote, leaving its bytes to a
/// [`SourceMemo`], which checks the ones it did not see before. When both
/// succeed the fields are what [`parse_json_object`] gives; on an error,
/// the frame's error is what `parse_json_object` reports after a UTF-8
/// check of the whole frame ([`NOT_UTF8`]).
pub fn parse_request(frame: &[u8]) -> Result<RequestFrame, String> {
    parse_flat(frame, true)
}

fn parse_flat(text: &[u8], escaped_source: bool) -> Result<RequestFrame, String> {
    let not_object = || "expected a JSON object".to_string();
    // Checked first so that bare garbage is reported as such, not as
    // whatever token error its first word runs into.
    if text.iter().find(|b| !is_ws(**b)) != Some(&b'{') {
        return Err(not_object());
    }
    let mut cursor = Cursor {
        bytes: text,
        pos: 0,
        escaped_source,
        source: None,
    };
    let Json::Obj(fields) = parse_json("object", &mut cursor)? else {
        return Err(not_object());
    };
    let fields = fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(v) | Json::Lit(v) => Ok((key, v)),
            Json::Obj(_) | Json::Arr(_) => Err("nested values are not supported".to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok(RequestFrame {
        fields,
        source: cursor.source,
    })
}

/// A parsed JSON value — just enough structure for a client to walk the
/// nested response documents (`status`, `stats`) the server emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{...}`, field order preserved.
    Obj(Vec<(String, Json)>),
    /// `[...]`.
    Arr(Vec<Json>),
    /// A string, unescaped.
    Str(String),
    /// A number, boolean, or `null`, kept as its literal text.
    Lit(String),
}

impl Json {
    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields in document order.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// The array's items.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// String content (strings only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer content (numeric literals only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Lit(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// `true`/`false` literals.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Lit(s) if s == "true" => Some(true),
            Json::Lit(s) if s == "false" => Some(false),
            _ => None,
        }
    }
}

/// Parses one complete JSON value (objects, arrays, strings, literals).
pub fn parse_json_value(text: &str) -> Result<Json, String> {
    let mut cursor = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
        escaped_source: false,
        source: None,
    };
    parse_json("value", &mut cursor)
}

/// A cursor over the bytes of a document.
struct Cursor<'a> {
    bytes: &'a [u8],
    /// Offset of the next byte.
    pos: usize,
    /// Whether the top-level object's first `source` field, if a string,
    /// is still to be left escaped.
    escaped_source: bool,
    /// The range of that field's string after the opening quote, closing
    /// quote included.
    source: Option<Range<usize>>,
}

impl<'a> Cursor<'a> {
    /// The bytes from the next one on.
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }
}

/// JSON's whitespace.
fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// The position of the first byte of `bytes` that is one of `sought`.
/// The first 64 bytes are searched eight at a time: in a word XOR-ed with
/// a sought byte repeated, that byte is a zero byte, and
/// `(x - 0x01…01) & !x & 0x80…80` sets the top bit of the first zero byte
/// of `x` (and maybe of later ones, never of an earlier one). Past them,
/// whole 64-byte blocks are tested without an early exit, which the
/// compiler turns into vector compares, and only the block with a hit is
/// searched byte by byte: a newline or a closing quote half a megabyte
/// away is found at memory speed, an escape a few bytes away at once.
fn first_of<const N: usize>(bytes: &[u8], sought: [u8; N]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    const BLOCK: usize = 64;
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & TOPS;
    let is_sought = |b: u8| sought.iter().fold(false, |hit, &s| hit | (b == s));
    let head = bytes.len().min(BLOCK);
    let mut words = bytes[..head].chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an eight-byte chunk"));
        let hits = sought
            .iter()
            .fold(0, |hits, &b| hits | zero_bytes(w ^ (ONES * u64::from(b))));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    for block in bytes[at..].chunks_exact(BLOCK) {
        let block: &[u8; BLOCK] = block.try_into().expect("a whole block");
        if block
            .iter()
            .fold(0u8, |any, &b| any | u8::from(is_sought(b)))
            != 0
        {
            break;
        }
        at += BLOCK;
    }
    bytes[at..]
        .iter()
        .position(|&b| is_sought(b))
        .map(|i| at + i)
}

/// The offset of the quote that closes a string whose bytes after the
/// opening quote are `bytes`: the first `"` after an even run of
/// backslashes. A backslash run starts after a byte that no escape can end
/// with a pending backslash, so it pairs up from its first byte, and a
/// quote after an odd run is escaped. In a string that decodes, this is
/// the quote the decoder stops at; only quotes are visited, never the
/// other escapes.
fn closing_quote(bytes: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let quote = from + first_of(&bytes[from..], [b'"'])?;
        let run = bytes[..quote]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\')
            .count();
        if run % 2 == 0 {
            return Some(quote);
        }
        from = quote + 1;
    }
}

/// The four hex digits of a `\u` escape at `bytes[at..]`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let mut code = 0;
    for i in 0..4 {
        let b = bytes.get(at + i).ok_or("truncated \\u escape")?;
        code = code * 16 + char::from(*b).to_digit(16).ok_or("invalid \\u escape")?;
    }
    Ok(code)
}

/// Decodes the string bytes at the start of `text` up to its first
/// unescaped `"`, appending them to `out`, and returns the quote's offset,
/// or `None` if `text` ends first. The bytes up to the next quote or
/// backslash are copied in one piece, and an escape is decoded from its
/// bytes; a `\u` high surrogate must be followed by a `\u` low one, and
/// the pair is one character. The first escape reserves room for the
/// rest of `text`, which the decoded value cannot outgrow.
///
/// With `marks`, the first [safe cut](SourceMemo) after each backslash is
/// recorded if it falls inside the run of bytes that follows the escape:
/// the first character boundary twelve bytes after the backslash, as
/// offsets into `text` and `out`.
fn unescape(
    text: &str,
    out: &mut String,
    mut marks: Option<&mut Vec<Mark>>,
) -> Result<Option<usize>, String> {
    let bytes = text.as_bytes();
    let lone = |code: u32| format!("lone surrogate \\u{code:04x}");
    let mut pos = 0;
    // The last backslash of the previous escape.
    let mut backslash = None;
    loop {
        let stop = first_of(&bytes[pos..], [b'"', b'\\']).map(|n| pos + n);
        let end = stop.unwrap_or(bytes.len());
        if let (Some(marks), Some(b)) = (marks.as_deref_mut(), backslash) {
            let mut cut = b + SAFE_CUT;
            while cut < end && !text.is_char_boundary(cut) {
                cut += 1;
            }
            if cut < end {
                marks.push(Mark::new(cut, out.len() + cut - pos));
            }
        }
        out.push_str(&text[pos..end]);
        let Some(at) = stop else {
            return Ok(None);
        };
        if bytes[at] == b'"' {
            return Ok(Some(at));
        }
        out.reserve(bytes.len() - at);
        backslash = Some(at);
        pos = at + 2;
        match bytes.get(at + 1) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => {
                out.push('\\');
                backslash = Some(at + 1);
            }
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'u') => {
                let high = hex4(bytes, at + 2)?;
                pos = at + 6;
                let code = match high {
                    0xD800..=0xDBFF => {
                        let low = if bytes[pos..].starts_with(b"\\u") {
                            hex4(bytes, pos + 2)?
                        } else {
                            0
                        };
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(lone(high));
                        }
                        backslash = Some(pos);
                        pos += 6;
                        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(lone(high)),
                    code => code,
                };
                out.push(char::from_u32(code).expect("not a surrogate"));
            }
            _ => return Err("unsupported escape".to_string()),
        }
    }
}

/// The one tokenizer behind every entry point; `what` names the document
/// in the trailing-input error.
fn parse_json(what: &str, cursor: &mut Cursor) -> Result<Json, String> {
    fn skip_ws(cursor: &mut Cursor) {
        while cursor.peek().is_some_and(is_ws) {
            cursor.pos += 1;
        }
    }
    /// A string token. Its end is found by its quote and only its bytes
    /// are checked to be UTF-8; a long decoded value allocates once, and a
    /// short one gives the slack back.
    fn parse_string(cursor: &mut Cursor) -> Result<String, String> {
        if cursor.next() != Some(b'"') {
            return Err("expected string".to_string());
        }
        let rest = cursor.rest();
        let token = closing_quote(rest).map_or(rest, |q| &rest[..=q]);
        let token = std::str::from_utf8(token).map_err(|_| NOT_UTF8.to_string())?;
        let mut s = String::new();
        let Some(end) = unescape(token, &mut s, None)? else {
            return Err("unterminated string".to_string());
        };
        cursor.pos += end + 1;
        if s.capacity() > 2 * s.len() + 64 {
            s.shrink_to_fit();
        }
        Ok(s)
    }
    fn parse_value(cursor: &mut Cursor, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err("value nests too deeply".to_string());
        }
        skip_ws(cursor);
        match cursor.peek() {
            Some(b'"') => Ok(Json::Str(parse_string(cursor)?)),
            Some(b'{') => {
                cursor.next();
                let mut fields = Vec::new();
                skip_ws(cursor);
                if cursor.peek() == Some(b'}') {
                    cursor.next();
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(cursor);
                    let key = parse_string(cursor)?;
                    skip_ws(cursor);
                    if cursor.next() != Some(b':') {
                        return Err(format!("expected `:` after key \"{key}\""));
                    }
                    skip_ws(cursor);
                    if matches!(cursor.peek(), Some(b',' | b'}')) {
                        return Err(format!("missing value for key \"{key}\""));
                    }
                    let escaped = depth == 0 && cursor.escaped_source && key == "source";
                    if escaped {
                        cursor.escaped_source = false;
                    }
                    if escaped && cursor.peek() == Some(b'"') {
                        let start = cursor.pos + 1;
                        let end =
                            closing_quote(&cursor.bytes[start..]).ok_or("unterminated string")?;
                        cursor.pos = start + end + 1;
                        cursor.source = Some(start..cursor.pos);
                        fields.push((key, Json::Str(String::new())));
                    } else {
                        fields.push((key, parse_value(cursor, depth + 1)?));
                    }
                    skip_ws(cursor);
                    match cursor.next() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(fields)),
                        _ => return Err("expected `,` or `}`".to_string()),
                    }
                }
            }
            Some(b'[') => {
                cursor.next();
                let mut items = Vec::new();
                skip_ws(cursor);
                if cursor.peek() == Some(b']') {
                    cursor.next();
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(cursor, depth + 1)?);
                    skip_ws(cursor);
                    match cursor.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(items)),
                        _ => return Err("expected `,` or `]`".to_string()),
                    }
                }
            }
            Some(_) => {
                let start = cursor.pos;
                while cursor
                    .peek()
                    .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !is_ws(b))
                {
                    cursor.pos += 1;
                }
                match std::str::from_utf8(&cursor.bytes[start..cursor.pos]) {
                    Err(_) => Err(NOT_UTF8.to_string()),
                    Ok("") => Err("missing value".to_string()),
                    Ok(v) => Ok(Json::Lit(v.to_string())),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
    let value = parse_value(cursor, 0)?;
    skip_ws(cursor);
    if cursor.next().is_some() {
        return Err(format!("trailing characters after {what}"));
    }
    Ok(value)
}

/// The longest escape, a `\u` surrogate pair, is twelve bytes: a cut with
/// no backslash in the eleven bytes before it is a token boundary however
/// the bytes before those parse.
const SAFE_CUT: usize = 12;

/// Whether a cut is a mark depends on the bytes from the backslash before
/// it up to the cut itself: at most this many bytes before it (twelve, and
/// up to three more of a character), and its own byte.
const MARK_CONTEXT: usize = SAFE_CUT + 3;

/// A memo's texts are allocated in steps of this many bytes: the text of
/// an edit a few bytes longer then fits the block its predecessor freed,
/// where exact sizes would leave each freed block a hole too small for
/// the next text (2.6 MiB more peak memory over ten growing edits of two
/// 22 KLoC sessions).
const TEXT_STEP: usize = 1 << 16;

/// A safe cut of a memo's escaped bytes and its offset in their decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    escaped: u32,
    text: u32,
}

impl Mark {
    fn new(escaped: usize, text: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("a frame is far shorter than 4 GiB");
        Mark {
            escaped: narrow(escaped),
            text: narrow(text),
        }
    }

    fn escaped(self) -> usize {
        self.escaped as usize
    }

    fn text(self) -> usize {
        self.text as usize
    }
}

/// The decoding of one session's `source` strings, kept from frame to
/// frame so that an edit decodes only around itself.
///
/// It keeps the frame of the last string it decoded (swapped with the
/// caller's read buffer, not copied), the string's decoding, and a *mark*
/// at the first safe cut after each backslash: a cut with no backslash in
/// the eleven bytes before it, on a character boundary. Such a cut is a
/// token boundary however the bytes before it parse, and whether a cut is
/// a mark depends only on the fifteen bytes before it and itself, never on
/// where the text starts or what came before: so the marks of a text are
/// the same however the memo got to it.
///
/// A new string is diffed against the kept bytes by block compares; the
/// changed window widens to the last mark before the common prefix ends
/// and the first mark whose fifteen bytes before it lie in the common
/// suffix; only the window is checked to be UTF-8 and decoded, with its
/// marks; its decoding goes between the kept decoded prefix and suffix,
/// and the marks after it shift. A memo that kept nothing diffs against
/// the empty string, so the first string decodes whole on the same path.
/// The decoded text is one shared string, which the session's workspace
/// keeps too.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SourceMemo {
    /// The frame the last string came in.
    frame: Vec<u8>,
    /// That string's escaped bytes in `frame`, between its quotes.
    escaped: Range<usize>,
    text: Arc<String>,
    marks: Vec<Mark>,
}

impl SourceMemo {
    /// Decodes the JSON string at `string` in `frame` (its bytes after the
    /// opening quote, closing quote included) as the tokenizer would, also
    /// checking that they are UTF-8. The text is shared with whoever keeps
    /// it next, such as the session's workspace. The memo keeps `frame`
    /// and hands back, in its place, the buffer of the frame it kept
    /// before, for the caller to read the next frame into. On an error the
    /// memo forgets what it kept and `frame` is left as it was.
    pub fn decode(
        &mut self,
        frame: &mut Vec<u8>,
        string: Range<usize>,
    ) -> Result<Arc<String>, String> {
        match self.splice(&frame[string.clone()]) {
            Ok(()) => {
                std::mem::swap(&mut self.frame, frame);
                self.escaped = string.start..string.end - 1;
                Ok(Arc::clone(&self.text))
            }
            Err(e) => {
                *self = SourceMemo::default();
                Err(e)
            }
        }
    }

    fn splice(&mut self, quoted: &[u8]) -> Result<(), String> {
        let escaped = quoted.strip_suffix(b"\"").ok_or("unterminated string")?;
        let old = &self.frame[self.escaped.clone()];
        let prefix = common_prefix(old, escaped);
        let suffix = common_suffix(&old[prefix..], &escaped[prefix..]);
        // Marks whose context lies in the common prefix or suffix are
        // marks of the new bytes too.
        let first = self.marks.partition_point(|m| m.escaped() < prefix);
        let from = first
            .checked_sub(1)
            .map_or(Mark::new(0, 0), |i| self.marks[i]);
        let rest = self
            .marks
            .partition_point(|m| m.escaped() < old.len() - suffix + MARK_CONTEXT);
        let to = self
            .marks
            .get(rest)
            .copied()
            .unwrap_or(Mark::new(old.len(), self.text.len()));
        // The window's end in the new bytes; the last window takes the
        // closing quote along, since an escape it cuts short reads it.
        let to_new = to.escaped() + escaped.len() - old.len();
        let last = to_new == escaped.len();
        let window = &quoted[from.escaped()..to_new + usize::from(last)];
        let window = std::str::from_utf8(window).map_err(|_| NOT_UTF8.to_string())?;
        // The new text: the window decoded onto the kept prefix, then the
        // kept suffix; the decoding cannot outgrow the escaped bytes.
        let kept = self.text.len() - to.text();
        let needed = from.text() + window.len() + kept;
        let mut text = String::with_capacity(needed.next_multiple_of(TEXT_STEP));
        text.push_str(&self.text[..from.text()]);
        // The window's marks go straight after the kept ones: marks are at
        // least `SAFE_CUT` bytes apart, so the room reserved suffices.
        let kept_marks = self.marks.split_off(rest);
        self.marks.truncate(first);
        self.marks.reserve(window.len() / SAFE_CUT + 1);
        let window_marks = self.marks.len();
        let stop = unescape(window, &mut text, Some(&mut self.marks))?;
        if stop != last.then(|| window.len() - 1) {
            return Err(match stop {
                Some(_) => "unescaped quote inside the string",
                None => "unterminated string",
            }
            .to_string());
        }
        for m in &mut self.marks[window_marks..] {
            *m = Mark::new(from.escaped() + m.escaped(), m.text());
        }
        let text_end = text.len();
        text.push_str(&self.text[to.text()..]);
        self.text = Arc::new(text);
        self.marks.extend(kept_marks.iter().map(|m| {
            Mark::new(
                m.escaped() - to.escaped() + to_new,
                m.text() - to.text() + text_end,
            )
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint::workload::rng::SmallRng;

    #[test]
    fn nested_values_round_trip() {
        let v = parse_json_value(
            r#"{"ok":true,"status":{"sessions":[{"name":"a","queue_depth":2}],"uptime_ns":17}}"#,
        )
        .unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let status = v.get("status").unwrap();
        assert_eq!(status.get("uptime_ns").and_then(Json::as_u64), Some(17));
        let sessions = status.get("sessions").unwrap().items();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].get("name").and_then(Json::as_str), Some("a"));
        assert!(parse_json_value("{\"x\":}").is_err());
        assert!(parse_json_value("[1,2] trailing").is_err());
    }

    #[test]
    fn flat_objects_keep_literals_as_text_and_reject_nesting() {
        let fields =
            parse_json_object(r#" {"cmd":"open","threads": 4 ,"ok":true,"s":"a\n\u0041"} "#);
        let expected = [
            ("cmd", "open"),
            ("threads", "4"),
            ("ok", "true"),
            ("s", "a\nA"),
        ];
        let expected: Vec<(String, String)> = expected
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(fields, Ok(expected));
        assert_eq!(parse_json_object("{}"), Ok(Vec::new()));
        let err = |line: &str| parse_json_object(line).unwrap_err();
        assert_eq!(err("not json at all"), "expected a JSON object");
        assert_eq!(err("[1]"), "expected a JSON object");
        assert_eq!(err(r#"{"a":{"x":1}}"#), "nested values are not supported");
        assert_eq!(err(r#"{"a":[1]}"#), "nested values are not supported");
        assert_eq!(err(r#"{"a":}"#), "missing value for key \"a\"");
        assert_eq!(err(r#"{"a" 1}"#), "expected `:` after key \"a\"");
        assert_eq!(err(r#"{"a":1"#), "expected `,` or `}`");
        assert_eq!(err(r#"{"a":1} x"#), "trailing characters after object");
        assert_eq!(err(r#"{"a":"x"#), "unterminated string");
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(100), "]".repeat(100));
        assert_eq!(err(&deep), "value nests too deeply");
        assert_eq!(err(r#"{"a":"\q"}"#), "unsupported escape");
        assert_eq!(err(r#"{"a":"\u12"}"#), "invalid \\u escape");
        assert_eq!(err(r#"{"a":"\u12"#), "truncated \\u escape");
        assert_eq!(err(r#"{"a":"\ud800"}"#), "lone surrogate \\ud800");
        assert_eq!(err(r#"{"a":"x\"#), "unsupported escape");
    }

    /// Every frame of `input`, read through a buffer of `capacity` bytes
    /// into one reused line buffer: lines as text, and the other frames
    /// by name.
    fn frames(input: &[u8], capacity: usize, cap: usize) -> Vec<String> {
        let mut reader = std::io::BufReader::with_capacity(capacity, input);
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_frame(&mut reader, cap, &mut line).unwrap() {
                Frame::Line => out.push(String::from_utf8(line.clone()).unwrap()),
                Frame::Oversized => out.push("<oversized>".to_string()),
                Frame::Eof => return out,
            }
        }
    }

    #[test]
    fn frames_decode_alike_through_every_buffer_size() {
        // Escapes and multi-byte characters at every offset: with buffers
        // of 1 to 17 bytes some chunk boundary falls inside each of them.
        let value = r#"q\"b\\s\u00e9\u03bbx é λ 🦀 end"#;
        let input = format!(
            "{{\"cmd\":\"update\",\"source\":\"{value}\"}}\n\n{}\n{{\"tail\":1}}",
            r#"{"s":"🦀\\\""}"#
        );
        let want = frames(input.as_bytes(), READ_CHUNK, MAX_SERVE_LINE);
        assert_eq!(want.len(), 4, "{want:?}");
        assert_eq!(want[1], "");
        let source = &parse_json_object(&want[0]).unwrap()[1].1;
        assert_eq!(source, "q\"b\\s\u{e9}\u{3bb}x é λ 🦀 end");
        for capacity in 1..=17 {
            assert_eq!(
                frames(input.as_bytes(), capacity, MAX_SERVE_LINE),
                want,
                "{capacity}"
            );
        }
    }

    #[test]
    fn the_reused_buffer_holds_exactly_the_current_frame() {
        let short = "{\"cmd\":\"status\"}";
        let at_cap = "x".repeat(MAX_SERVE_LINE);
        let over_cap = "x".repeat(MAX_SERVE_LINE + 1);
        let input = format!("{at_cap}\n{short}\n{over_cap}\n{short}\n{short}{short}\n{short}\n");
        let got = frames(input.as_bytes(), READ_CHUNK, MAX_SERVE_LINE);
        let want = [
            at_cap.as_str(),
            short,
            "<oversized>",
            short,
            &format!("{short}{short}"),
            short,
        ];
        assert_eq!(got, want);
        // An oversized line with no newline before the end of input.
        let got = frames(format!("{short}\n{over_cap}").as_bytes(), 7, MAX_SERVE_LINE);
        assert_eq!(got, [short, "<oversized>"]);
    }

    #[test]
    fn escaped_strings_round_trip() {
        use pinpoint::obs::json::escape;
        use pinpoint::workload::{generate, GenConfig};
        let project = generate(
            &GenConfig {
                seed: 1,
                real_bugs: 2,
                decoys: 2,
                taint: true,
                ..GenConfig::default()
            }
            .with_target_kloc(20.0),
        );
        let every_escape = "q\"b\\s/n\nt\tr\r\u{1}\u{1f} é ß λ → 🦀 end";
        for text in [project.source.as_str(), every_escape] {
            let line = format!("{{\"source\":\"{}\"}}", escape(text));
            let fields = parse_json_object(&line).unwrap();
            assert_eq!(fields, [("source".to_string(), text.to_string())]);
        }
        // Escapes the writer never emits decode too.
        let fields = parse_json_object(r#"{"s":"\/\u00e9\u0041\u03bb"}"#).unwrap();
        assert_eq!(fields, [("s".to_string(), "/éAλ".to_string())]);
    }

    /// `text` escaped as Python's default `json.dumps` does
    /// (`ensure_ascii=True`): every character past ASCII as `\u` escapes,
    /// one past the Basic Multilingual Plane as a surrogate pair.
    fn escape_ascii(text: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c.is_ascii() && c >= ' ' => out.push(c),
                c => {
                    let mut units = [0; 2];
                    for unit in c.encode_utf16(&mut units) {
                        let _ = write!(out, "\\u{unit:04x}");
                    }
                }
            }
        }
        out
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_named() {
        let text = "// \"quoted\" \\ é λ 🦀 \u{1}";
        let line = format!("{{\"source\":\"{}\"}}", escape_ascii(text));
        assert!(line.contains(r"\ud83e\udd80"), "{line}");
        let fields = parse_json_object(&line).unwrap();
        assert_eq!(fields, [("source".to_string(), text.to_string())]);
        assert_eq!(decode_request(line.as_bytes()).as_deref(), Ok(text));
        let err = |value: &str| parse_json_object(&format!("{{\"s\":\"{value}\"}}")).unwrap_err();
        assert_eq!(err(r"\ud83e"), r"lone surrogate \ud83e");
        assert_eq!(err(r"\ud83ex"), r"lone surrogate \ud83e");
        assert_eq!(err(r"\ud83e\u0041"), r"lone surrogate \ud83e");
        assert_eq!(err(r"\ud83e\ud83e\udd80"), r"lone surrogate \ud83e");
        assert_eq!(err(r"\udd80"), r"lone surrogate \udd80");
        assert_eq!(err(r"\ud83e\ud"), r"invalid \u escape");
    }

    #[test]
    fn a_request_leaves_its_first_source_string_escaped() {
        let frames = [
            r#"{"cmd":"update","session":"a","source":"x\"y\\\n\u00e9 é","id":"7"}"#,
            r#" {"source":"","cmd":"open"} "#,
            r#"{"cmd":"open","source":5,"source":"ignored"}"#,
            r#"{"cmd":"open","source":"first","source":"se\u0063ond"}"#,
            r#"{"cmd":"check","session":"a"}"#,
        ];
        for frame in frames {
            let want = parse_json_object(frame).unwrap();
            let RequestFrame { mut fields, source } = parse_request(frame.as_bytes()).unwrap();
            if source.is_some() {
                let placeholder = fields.iter_mut().find(|(k, _)| k == "source").unwrap();
                assert_eq!(placeholder.1, "");
                placeholder.1 = decode_request(frame.as_bytes()).unwrap();
            }
            assert_eq!(fields, want, "{frame}");
        }
        // A literal `source` is decoded in place; only the first field is
        // left escaped.
        assert!(parse_request(frames[2].as_bytes())
            .unwrap()
            .source
            .is_none());
        let quoted = parse_request(frames[3].as_bytes()).unwrap().source.unwrap();
        assert_eq!(&frames[3].as_bytes()[quoted], b"first\"");
        // Bytes outside the escaped string are checked to be UTF-8 ...
        let mut bad = br#"{"cmd":"update","id":"#.to_vec();
        bad.extend_from_slice(b"\"\xff\",\"source\":\"ok\"}");
        assert_eq!(parse_request(&bad).err().as_deref(), Some(NOT_UTF8));
        // ... and those inside it by the memo.
        let bad = b"{\"source\":\"a\xffb\"}";
        assert_eq!(decode_request(bad), Err(NOT_UTF8.to_string()));
    }

    /// The first `source` string of a request frame, decoded by a fresh
    /// memo.
    fn decode_request(frame: &[u8]) -> Result<String, String> {
        let string = parse_request(frame).unwrap().source.unwrap();
        let text = SourceMemo::default().decode(&mut frame.to_vec(), string)?;
        Ok(text.to_string())
    }

    /// `quoted` (a string's bytes after its opening quote) decoded by
    /// `memo`, from a frame that is just those bytes.
    fn decode(memo: &mut SourceMemo, quoted: &[u8]) -> Result<String, String> {
        let mut frame = quoted.to_vec();
        let text = memo.decode(&mut frame, 0..quoted.len())?;
        Ok(text.to_string())
    }

    /// What decoding the string `quoted` (its bytes after the opening
    /// quote) whole gives, the reference a memo is held to.
    fn full_decode(quoted: &[u8]) -> Result<String, String> {
        let text = std::str::from_utf8(quoted).map_err(|_| NOT_UTF8.to_string())?;
        let mut out = String::new();
        match unescape(text, &mut out, None)? {
            Some(q) if q + 1 == text.len() => Ok(out),
            Some(_) => Err("unescaped quote inside the string".to_string()),
            None => Err("unterminated string".to_string()),
        }
    }

    /// A random text with every kind of character a source string can
    /// carry: code, quotes, backslashes and their long runs, control
    /// characters, and two-, three- and four-byte characters.
    fn random_text(rng: &mut SmallRng, len: usize) -> String {
        const PIECES: [&str; 14] = [
            "fn filler(p: int*) {",
            "    let x: int = *p;",
            "}\n",
            "\n",
            "\"",
            "\\",
            "\\\\\\\\\\\\\\",
            "\t\r",
            "\u{1}\u{1f}",
            "é",
            "λ→",
            "🦀",
            " // comment",
            "abcdefghijklmnop",
        ];
        let mut text = String::new();
        while text.len() < len {
            text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
        text
    }

    /// The string bytes of `text` after the opening quote, escaped one of
    /// two ways.
    fn quoted(text: &str, ascii: bool) -> Vec<u8> {
        use pinpoint::obs::json::escape;
        let escaped = if ascii {
            escape_ascii(text)
        } else {
            escape(text)
        };
        format!("{escaped}\"").into_bytes()
    }

    /// `bytes` with `bytes[at..at + cut]` replaced by `with`.
    fn edited(bytes: &[u8], at: usize, cut: usize, with: &[u8]) -> Vec<u8> {
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(with);
        out.extend_from_slice(&bytes[(at + cut).min(bytes.len())..]);
        out
    }

    /// One random next string: mostly an edit of the decoded text
    /// re-escaped, else raw bytes dropped into the escaped ones (inside
    /// escapes and characters, at the ends), the same string again, or a
    /// new one.
    fn next_string(rng: &mut SmallRng, quoted_now: &[u8], text_now: Option<&str>) -> Vec<u8> {
        const BYTES: &[u8] = b"\\\"u0d8eabnx\xc3\xa9\xf0\x9f\xa6\x80\x01 ";
        let escaped = &quoted_now[..quoted_now.len().saturating_sub(1)];
        match rng.gen_range(0..10) {
            0..=4 if text_now.is_some() => {
                let text = text_now.unwrap();
                let mut at = rng.gen_range(0..text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + rng.gen_range(0..24)).min(text.len());
                while !text.is_char_boundary(end) {
                    end -= 1;
                }
                let len = rng.gen_range(0..16);
                let insert = random_text(rng, len);
                let next = format!("{}{insert}{}", &text[..at], &text[end..]);
                quoted(&next, rng.gen_bool(0.5))
            }
            5 | 6 => {
                let at = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => escaped.len(),
                    _ => rng.gen_range(0..escaped.len() + 1),
                };
                let with: Vec<u8> = (0..rng.gen_range(0..4))
                    .map(|_| BYTES[rng.gen_range(0..BYTES.len())])
                    .collect();
                let mut next = edited(escaped, at, rng.gen_range(0..3), &with);
                next.push(b'"');
                next
            }
            7 => quoted_now.to_vec(),
            _ => {
                let len = rng.gen_range(0..600);
                quoted(&random_text(rng, len), rng.gen_bool(0.5))
            }
        }
    }

    /// Every step of thousands of random edit sequences decodes through one
    /// memo exactly as a full decode does — text or error — and leaves the
    /// memo as a fresh memo given the same string would be.
    #[test]
    fn memo_splices_equal_full_decodes() {
        let mut rng = SmallRng::seed_from_u64(45);
        for _ in 0..2000 {
            let len = rng.gen_range(0..3000);
            let mut now = quoted(&random_text(&mut rng, len), rng.gen_bool(0.5));
            let mut memo = SourceMemo::default();
            for _ in 0..8 {
                let want = full_decode(&now);
                let got = decode(&mut memo, &now);
                assert_eq!(got, want, "{:?}", String::from_utf8_lossy(&now));
                let mut fresh = SourceMemo::default();
                let _ = decode(&mut fresh, &now);
                assert_eq!(memo, fresh, "{:?}", String::from_utf8_lossy(&now));
                now = next_string(&mut rng, &now, got.ok().as_deref());
            }
        }
    }

    /// A surrogate pair, and a backslash run, right where the common
    /// prefix or suffix of two strings ends: the window must not start or
    /// end inside them.
    #[test]
    fn memo_never_cuts_a_surrogate_pair_or_a_backslash_run() {
        let line = "abcdefghijklmnopqrstuvwxyz\n".repeat(40);
        for (i, straddled) in [r"\ud83e\udd80", r"\\\\\\\\\\\\", r"\u00e9\n"]
            .iter()
            .enumerate()
        {
            let base = format!("{line}{straddled}abcdefghijklmnopqrstuvwxyz{line}\"");
            let at = line.len();
            let mut memo = SourceMemo::default();
            decode(&mut memo, base.as_bytes()).unwrap();
            for offset in 0..straddled.len() + SAFE_CUT + 2 {
                for with in [&b""[..], b"x", b"\\\\", b"\\u0041"] {
                    let next = edited(base.as_bytes(), at + offset, 1, with);
                    let want = full_decode(&next);
                    let got = decode(&mut memo, &next);
                    assert_eq!(got, want, "{i} {offset}");
                    decode(&mut memo, base.as_bytes()).unwrap();
                }
            }
        }
    }
}
