//! Line-delimited JSON plumbing shared by the serve transports and the
//! `top` dashboard client: frame reading with an allocation cap and a
//! small recursive JSON value parser (the response side, whose documents
//! nest) with a flat-object view over it (the request side).

/// Longest request line a serve transport will buffer (1 MiB). Longer
/// lines are drained and rejected without allocating for them, and the
/// stream resynchronizes at the next newline.
pub const MAX_SERVE_LINE: usize = 1 << 20;

/// One input frame.
pub enum Frame {
    /// A complete line (without the trailing newline), raw bytes.
    Line(Vec<u8>),
    /// The line exceeded [`MAX_SERVE_LINE`]; its bytes were discarded.
    Oversized,
    /// End of input.
    Eof,
}

/// Reads one newline-delimited frame without assuming valid UTF-8 and
/// without buffering more than `cap` bytes — the remainder of an
/// oversized line is consumed and thrown away so the next frame starts
/// clean.
pub fn read_frame(input: &mut impl std::io::BufRead, cap: usize) -> Result<Frame, String> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = input
            .fill_buf()
            .map_err(|e| format!("cannot read input: {e}"))?;
        if chunk.is_empty() {
            return Ok(if oversized {
                Frame::Oversized
            } else if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(buf)
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !oversized {
                    buf.extend_from_slice(&chunk[..i]);
                    if buf.len() > cap {
                        oversized = true;
                    }
                }
                input.consume(i + 1);
                return Ok(if oversized {
                    Frame::Oversized
                } else {
                    Frame::Line(buf)
                });
            }
            None => {
                let len = chunk.len();
                if !oversized {
                    buf.extend_from_slice(chunk);
                    if buf.len() > cap {
                        oversized = true;
                        buf = Vec::new();
                    }
                }
                input.consume(len);
            }
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

/// The one tokenizer behind both entry points; `what` names the document
/// in the trailing-input error.
fn parse_json(what: &str, text: &str) -> Result<Json, String> {
    type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;
    fn skip_ws(chars: &mut Chars) {
        while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            chars.next();
        }
    }
    fn parse_string(chars: &mut Chars) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected string".to_string());
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(s),
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + c.to_digit(16).ok_or("invalid \\u escape")?;
                        }
                        s.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    _ => return Err("unsupported escape".to_string()),
                },
                Some(c) => s.push(c),
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
                if chars.peek() == Some(&'}') {
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
                if chars.peek() == Some(&']') {
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
                while let Some(&c) = chars.peek() {
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
    let mut chars: Chars = text.chars().peekable();
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
    }
}
