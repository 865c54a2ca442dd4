package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// decoderAccepts reports whether json.Decoder reads a first value from
// data without error — the grammar Skip must match.
func decoderAccepts(data []byte) bool {
	var raw json.RawMessage
	return json.NewDecoder(bytes.NewReader(data)).Decode(&raw) == nil
}

var grammarCases = []string{
	`{}`, `[]`, `""`, `0`, `-0`, `1.5e-3`, `1E+2`, `true`, `false`, `null`,
	` {"a" : [1, 2, {"b": null}], "c": "d"} `, `{"a":1}}`, `[1] 2`, `0123`, `1x`, `truex`, `null,`,
	`{`, `[`, `"`, `-`, `1.`, `1e`, `1e+`, `.5`, `+1`, `01.5`, `-a`, `tru`, `nul`, `fals`, `nulL`,
	`{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{1:2}`, `[1,]`, `[,1]`, `[1 2]`, `{"a":1 "b":2}`,
	`"é\ud800\n\t\"\\\/\b\f\r"`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"a\x01\"", "\"\xff\xfe\"",
	"\"\x7f\"", "\t\n\r [ ]", "\x00", "\xef\xbb\xbf{}", `[` + strings.Repeat(`"x",`, 50) + `1]`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000),
	strings.Repeat(`{"a":`, 10001) + `1` + strings.Repeat("}", 10001),
	``, ` `,
}

func TestSkipMatchesEncodingJSON(t *testing.T) {
	for _, in := range grammarCases {
		s := New([]byte(in))
		s.Skip()
		if got, want := s.Err() == nil, decoderAccepts([]byte(in)); got != want {
			t.Errorf("%.40q: scanner accepts %v, encoding/json %v (err %v)", in, got, want, s.Err())
		}
	}
}

// FuzzSkip holds Skip's grammar to json.Decoder's on arbitrary bytes.
func FuzzSkip(f *testing.F) {
	for _, in := range grammarCases {
		if len(in) < 1000 {
			f.Add([]byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(data)
		s.Skip()
		if got, want := s.Err() == nil, decoderAccepts(data); got != want {
			t.Fatalf("%q: scanner accepts %v, encoding/json %v (err %v)", data, got, want, s.Err())
		}
	})
}

// fields is a struct of every destination kind the readers stand in
// for, prefilled so that a null or a type error shows as an unchanged
// value.
type fields struct {
	I int64   `json:"i"`
	F float64 `json:"f"`
	B bool    `json:"b"`
	S string  `json:"s"`
}

var prefilled = fields{I: 7, F: 7.5, B: true, S: "seven"}

// decodeFields decodes one object into a prefilled fields with the
// readers and reports whether any reader saw a type error.
func decodeFields(data []byte) (out fields, typeErr bool, err error) {
	out = prefilled
	s := New(data)
	if !s.Enter('{') {
		s.Skip()
		return out, true, s.Err()
	}
	names := []string{"i", "f", "b", "s"}
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			break
		}
		switch Lookup(key, names) {
		case 0:
			ok = s.Int(&out.I)
		case 1:
			ok = s.Float(&out.F)
		case 2:
			ok = s.Bool(&out.B)
		case 3:
			ok = s.String(&out.S)
		default:
			s.Skip()
		}
		typeErr = typeErr || !ok
	}
	return out, typeErr, s.Err()
}

func TestReadersMatchEncodingJSON(t *testing.T) {
	values := []string{
		`0`, `-0`, `12`, `-12`, `1.0`, `1e2`, `1E-2`, `-1.5e-7`, `123456789012345678`, `999999999999999999`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`1e400`, `-1e400`, `1e-400`, `4.9e-324`, `1.7976931348623157e308`, `0.1`,
		`true`, `false`, `null`, `"x"`, `""`, `"a\"b"`, `"é"`, "\"\xff\"", `"é"`, `[]`, `{}`, `[1,{"a":[]}]`,
	}
	keys := []string{"i", "f", "b", "s", "I", "F", "S", "x", "\\u0069", "ſ"}
	for _, key := range keys {
		for _, v := range values {
			for _, body := range []string{
				`{"` + key + `":` + v + `}`,
				`{"i":1,"` + key + `":` + v + `,"` + key + `":` + v + `}`,
			} {
				got, typeErr, err := decodeFields([]byte(body))
				if err != nil {
					t.Fatalf("%s: syntax error %v", body, err)
				}
				want := prefilled
				wantErr := json.Unmarshal([]byte(body), &want)
				var ute *json.UnmarshalTypeError
				if wantErr != nil && !errors.As(wantErr, &ute) {
					t.Fatalf("%s: encoding/json failed with %v", body, wantErr)
				}
				if typeErr != (wantErr != nil) {
					t.Errorf("%s: type error %v, encoding/json %v", body, typeErr, wantErr)
					continue
				}
				if got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) || got.B != want.B || got.S != want.S {
					t.Errorf("%s: decoded %+v, encoding/json %+v", body, got, want)
				}
			}
		}
	}
}

func TestLookupExactThenFolded(t *testing.T) {
	names := []string{"graph", "seed"}
	for key, want := range map[string]int{
		"graph": 0, "GRAPH": 0, "Graph": 0, "seed": 1, "SEED": 1, "ſeed": 1, "graphs": -1, "": -1, "ıd": -1,
	} {
		if got := Lookup([]byte(key), names); got != want {
			t.Errorf("Lookup(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestStringsDoNotAliasInput(t *testing.T) {
	data := []byte(`{"plain":"abc","esc":"a\nb"}`)
	s := New(data)
	var plain, esc string
	s.Enter('{')
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			break
		}
		if string(key) == "plain" {
			s.String(&plain)
		} else {
			s.String(&esc)
		}
	}
	for i := range data {
		data[i] = 'X'
	}
	if plain != "abc" || esc != "a\nb" {
		t.Fatalf("decoded strings changed with the input: %q %q", plain, esc)
	}
}

func TestSyntaxErrorIsSticky(t *testing.T) {
	s := New([]byte(`[1,}`))
	s.Skip()
	first := s.Err()
	if first == nil || !strings.Contains(first.Error(), "'}' looking for beginning of value at offset 3") {
		t.Fatalf("err = %v, want a syntax error at offset 3", first)
	}
	var n int64 = 5
	if s.Int(&n); s.Next() != 0 || s.Enter('{') || s.Elem(0) || n != 5 {
		t.Fatal("scanner kept reading after a syntax error")
	}
	if _, ok := s.Member(0); ok {
		t.Fatal("Member reported a key after a syntax error")
	}
	if s.Err() != first {
		t.Fatal("first syntax error was replaced")
	}
}

// numberSeeds sit on the edges of the readers' exact paths: signed
// zero, a mantissa at and one past 2^53, the largest exact power of
// ten and the first inexact one, 18-, 19- and 20-digit mantissas,
// int64's bounds, the smallest subnormal, and values that underflow or
// overflow float64.
var numberSeeds = []string{
	`-0`, `0`, `-0.0`, `0.1`, `1.5`, `-12.345`, `0.30000000000000004`,
	`9007199254740992`, `9007199254740993`, `9007199254740992.5`, `0.9007199254740993`,
	`1e22`, `1e23`, `10000000000000000000000`, `100000000000000000000000`, `0.0000000000000000000001`,
	`123456789012345678`, `1234567890123456789`, `12345678901234567890`, `1.234567890123456789`,
	`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `-9223372036854775809`,
	`4.9e-324`, `5e-324`, `2e-324`, `1e-400`, `1e400`, `-1e400`, `1.7976931348623157e308`,
	`1.0`, `1E2`, `2.5e-1`,
}

// FuzzNumber holds the readers' number conversions to strconv on every
// token the grammar accepts: Float equals strconv.ParseFloat bit for
// bit or both reject, and Int accepts exactly what strconv.ParseInt
// accepts, with the same value.
func FuzzNumber(f *testing.F) {
	for _, in := range numberSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s := New([]byte(in))
		if c := s.Next(); c != '-' && !isDigit(c) {
			return
		}
		start := s.pos
		var got float64
		fok := s.Float(&got)
		if s.Err() != nil {
			return // not a number token
		}
		tok := in[start:s.pos]
		want, err := strconv.ParseFloat(tok, 64)
		if fok != (err == nil) || fok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float(%q) = %v (%x), %v; strconv %v (%x), %v",
				tok, got, math.Float64bits(got), fok, want, math.Float64bits(want), err)
		}
		var n int64
		iok := New([]byte(tok)).Int(&n)
		wantN, err := strconv.ParseInt(tok, 10, 64)
		if iok != (err == nil) || iok && n != wantN {
			t.Fatalf("Int(%q) = %d, %v; strconv %d, %v", tok, n, iok, wantN, err)
		}
	})
}
