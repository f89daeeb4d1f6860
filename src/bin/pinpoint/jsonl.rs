//! Line-delimited JSON plumbing shared by the serve transports and the
//! `top` dashboard client: frame reading with an allocation cap and a
//! small recursive JSON value parser (the response side, whose documents
//! nest) with a flat-object view over it (the request side).

/// Longest request line a serve transport will buffer (1 MiB). Longer
/// lines are drained and rejected without allocating for them, and the
/// stream resynchronizes at the next newline.
pub const MAX_SERVE_LINE: usize = 1 << 20;

/// Bytes a serve transport reads from its stream at a time: a 0.5 MB
/// `update` frame is eight reads, not sixty-four.
pub const READ_CHUNK: usize = 1 << 16;

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
/// reused from frame to frame; the newline is found eight bytes at a
/// time ([`first_of`]).
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
    let not_object = || "expected a JSON object".to_string();
    // Checked first so that bare garbage is reported as such, not as
    // whatever token error its first word runs into.
    if !line
        .trim_start_matches([' ', '\t', '\r', '\n'])
        .starts_with('{')
    {
        return Err(not_object());
    }
    let Json::Obj(fields) = parse_json("object", line)? else {
        return Err(not_object());
    };
    fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(v) | Json::Lit(v) => Ok((key, v)),
            Json::Obj(_) | Json::Arr(_) => Err("nested values are not supported".to_string()),
        })
        .collect()
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
    parse_json("value", text)
}

/// A cursor over the characters of a document.
struct Chars<'a> {
    text: &'a str,
    /// Byte offset of the next character.
    pos: usize,
}

impl<'a> Chars<'a> {
    /// The text from the next character on.
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }
}

/// The position of the first byte of `bytes` that is one of `sought`,
/// found eight bytes at a time: in a word XOR-ed with a sought byte
/// repeated, that byte is a zero byte, and `(x - 0x01…01) & !x & 0x80…80`
/// sets the top bit of the first zero byte of `x` (and maybe of later
/// ones, never of an earlier one).
fn first_of<const N: usize>(bytes: &[u8], sought: [u8; N]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & TOPS;
    let mut words = bytes.chunks_exact(8);
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
    let mut tail = words.remainder().iter();
    tail.position(|b| sought.contains(b)).map(|i| at + i)
}

/// The one tokenizer behind both entry points; `what` names the document
/// in the trailing-input error.
fn parse_json(what: &str, text: &str) -> Result<Json, String> {
    fn skip_ws(chars: &mut Chars) {
        while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            chars.next();
        }
    }
    /// A string token, decoded a run at a time: the bytes up to the next
    /// quote or backslash are copied in one piece, and an escape is
    /// decoded from its bytes. The first escape reserves room for the
    /// rest of the document, which the decoded value cannot outgrow, so a
    /// long escaped value allocates once; a short one gives the slack
    /// back.
    fn parse_string(chars: &mut Chars) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected string".to_string());
        }
        let mut s = String::new();
        loop {
            let rest = chars.rest();
            let bytes = rest.as_bytes();
            let Some(run) = first_of(bytes, [b'"', b'\\']) else {
                return Err("unterminated string".to_string());
            };
            s.push_str(&rest[..run]);
            chars.pos += run + 1;
            if bytes[run] == b'"' {
                if s.capacity() > 2 * s.len() + 64 {
                    s.shrink_to_fit();
                }
                return Ok(s);
            }
            s.reserve(rest.len() - run);
            let escape = bytes.get(run + 1).copied();
            chars.pos += 1;
            match escape {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b't') => s.push('\t'),
                Some(b'r') => s.push('\r'),
                Some(b'u') => {
                    let mut code = 0u32;
                    for i in 0..4 {
                        let b = bytes.get(run + 2 + i).ok_or("truncated \\u escape")?;
                        let digit = char::from(*b).to_digit(16);
                        code = code * 16 + digit.ok_or("invalid \\u escape")?;
                    }
                    chars.pos += 4;
                    s.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                _ => return Err("unsupported escape".to_string()),
            }
        }
    }
    fn parse_value(chars: &mut Chars, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err("value nests too deeply".to_string());
        }
        skip_ws(chars);
        match chars.peek() {
            Some('"') => Ok(Json::Str(parse_string(chars)?)),
            Some('{') => {
                chars.next();
                let mut fields = Vec::new();
                skip_ws(chars);
                if chars.peek() == Some('}') {
                    chars.next();
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(chars);
                    let key = parse_string(chars)?;
                    skip_ws(chars);
                    if chars.next() != Some(':') {
                        return Err(format!("expected `:` after key \"{key}\""));
                    }
                    skip_ws(chars);
                    if matches!(chars.peek(), Some(',' | '}')) {
                        return Err(format!("missing value for key \"{key}\""));
                    }
                    fields.push((key, parse_value(chars, depth + 1)?));
                    skip_ws(chars);
                    match chars.next() {
                        Some(',') => continue,
                        Some('}') => return Ok(Json::Obj(fields)),
                        _ => return Err("expected `,` or `}`".to_string()),
                    }
                }
            }
            Some('[') => {
                chars.next();
                let mut items = Vec::new();
                skip_ws(chars);
                if chars.peek() == Some(']') {
                    chars.next();
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(chars, depth + 1)?);
                    skip_ws(chars);
                    match chars.next() {
                        Some(',') => continue,
                        Some(']') => return Ok(Json::Arr(items)),
                        _ => return Err("expected `,` or `]`".to_string()),
                    }
                }
            }
            Some(_) => {
                let mut v = String::new();
                while let Some(c) = chars.peek() {
                    if matches!(c, ',' | '}' | ']' | ' ' | '\t' | '\r' | '\n') {
                        break;
                    }
                    v.push(c);
                    chars.next();
                }
                if v.is_empty() {
                    Err("missing value".to_string())
                } else {
                    Ok(Json::Lit(v))
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
    let mut chars = Chars { text, pos: 0 };
    let value = parse_value(&mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(format!("trailing characters after {what}"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(err(r#"{"a":"\ud800"}"#), "invalid \\u code point");
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
}
