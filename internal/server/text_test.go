package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// TestTextRoundTrip pins Text's two promises: any bytes come back as they
// went (json.Marshal's HTML escaping included), and valid UTF-8 is spelled
// exactly as encoding/json spells a string, so clients see no change.
func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []string{"", "GATTACA", "caf\xc3", "caf\xc3\xa9", "\xc3", "\xed\xb2\x80", "\xff\xfe",
		"a\"b\\c\n\t\x01<>&", "\u2028\u2029", "\U0001F480", "\ufffd", "\xf0\x9f\x92"}
	for range 2000 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				const awkward = "\xc3\xa9\xe2\x80\xa8\xf0\x9f\x92\x80\\\"u"
				b[i] = awkward[rng.Intn(len(awkward))]
			}
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		for _, html := range []bool{false, true} {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(struct{ P []Text }{[]Text{Text(s)}}); err != nil {
				t.Fatal(err)
			}
			var got struct{ P []Text }
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil || len(got.P) != 1 || string(got.P[0]) != s {
				t.Fatalf("%q (html %v) went out as %s and came back as %+v (%v)", s, html, buf.Bytes(), got, err)
			}
			if !utf8.ValidString(s) {
				continue
			}
			var std bytes.Buffer
			enc = json.NewEncoder(&std)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(struct{ P []string }{[]string{s}}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), std.Bytes()) {
				t.Fatalf("%q (html %v): Text writes %s, encoding/json %s", s, html, buf.Bytes(), std.Bytes())
			}
			var back Text
			if err := json.Unmarshal(bytes.TrimSpace(std.Bytes()[6:len(std.Bytes())-3]), &back); err != nil || string(back) != s {
				t.Fatalf("%q: encoding/json's %s reads back as %q (%v)", s, std.Bytes(), back, err)
			}
		}
	}
	// A client's escaped surrogate pair is a character; a lone high surrogate
	// reads as encoding/json reads it.
	for in, want := range map[string]string{`"\ud83d\udc80"`: "\U0001F480", `"\ud83dx"`: "\ufffdx", `"\udcc3"`: "\xc3", `"\u00e9"`: "\u00e9"} {
		var got Text
		if err := json.Unmarshal([]byte(in), &got); err != nil || string(got) != want {
			t.Errorf("%s reads as %q (%v), want %q", in, got, err, want)
		}
	}
	var n Text
	if err := json.Unmarshal([]byte(`7`), &n); err == nil {
		t.Error("a number read as Text")
	}
}
