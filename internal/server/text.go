package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"unicode/utf16"
	"unicode/utf8"
)

// Text is a byte string on the wire: a JSON string that arrives holding the
// bytes it was sent with, whatever they are. A string field does not —
// encoding/json writes and reads a byte that is not part of valid UTF-8 as
// U+FFFD — and a custom alphabet may hold any byte above '$', so a shard key,
// a key prefix the router counts, or a top-k L-mer of UTF-8 text can end
// inside a character. Text writes such a byte b as the escape \udcXX, the
// lone low surrogate U+DC00+b that no text holds (Python's "surrogateescape",
// PEP 383), and reads that escape, or the raw byte, back as b. Everything
// else is written and read as encoding/json does it, so valid UTF-8 looks the
// same on the wire either way.
type Text string

// MarshalJSON writes t as a JSON string.
func (t Text) MarshalJSON() ([]byte, error) { return appendText(nil, string(t)), nil }

// appendText is encoding/json's string encoding (HTML escaping is the
// encoder's to add) with \udcXX in place of U+FFFD.
func appendText(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), '\\', 'u', 'd', 'c', hex[c>>4], hex[c&0xF])
			case r == 0x2028 || r == 0x2029: // encoding/json escapes the line and paragraph separators
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// UnmarshalJSON reads a JSON string into t: an escape \udc80–\udcff not
// paired with a high surrogate, and a raw byte that is not UTF-8, as that
// byte.
func (t *Text) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if len(b) < 2 || b[0] != '"' {
		return &json.UnmarshalTypeError{Value: "non-string", Type: reflect.TypeFor[Text]()}
	}
	s := b[1 : len(b)-1]
	if bytes.IndexByte(s, '\\') < 0 {
		*t = Text(s)
		return nil
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			out = append(out, s[i])
			continue
		}
		// The decoder has vetted the escapes: one byte, or u and four hex
		// digits.
		i++
		switch c := s[i]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(s[i+1 : i+5])
			i += 4
			switch {
			case r >= 0xdc80 && r <= 0xdcff:
				out = append(out, byte(r))
			case utf16.IsSurrogate(r):
				if i+6 < len(s) && s[i+1] == '\\' && s[i+2] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(s[i+3:i+7])); pair != utf8.RuneError {
						out = utf8.AppendRune(out, pair)
						i += 6
						break
					}
				}
				out = utf8.AppendRune(out, utf8.RuneError)
			default:
				out = utf8.AppendRune(out, r)
			}
		default: // '"', '\\', '/'
			out = append(out, c)
		}
	}
	*t = Text(out)
	return nil
}

// hex4 is the value of four hex digits.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
