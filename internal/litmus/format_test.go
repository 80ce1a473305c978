package litmus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// decodeOne parses a corpus that must hold exactly one test.
func decodeOne(data string) (*Test, error) {
	tests, err := DecodeCorpus(data)
	if err != nil {
		return nil, err
	}
	if len(tests) != 1 {
		return nil, fmt.Errorf("litmus: expected exactly one test, got %d", len(tests))
	}
	return tests[0], nil
}

// TestEncodeDecodeRoundTrip: decodeOne(Encode(t)) is the identity over the
// curated corpus and a generated sample.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := ConformanceCorpus()
	tests = append(tests, Generate(GenOptions{Seed: 42, Count: 50})...)
	for _, orig := range tests {
		enc := Encode(orig)
		got, err := decodeOne(enc)
		if err != nil {
			t.Fatalf("%s: decode failed: %v\n%s", orig.Name, err, enc)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("%s: round trip changed the test:\norig %+v\ngot  %+v", orig.Name, orig, got)
		}
		if re := Encode(got); re != enc {
			t.Fatalf("%s: re-encode differs:\n%s\nvs\n%s", orig.Name, enc, re)
		}
	}
}

// TestCorpusRoundTrip: a whole corpus survives EncodeCorpus/DecodeCorpus.
func TestCorpusRoundTrip(t *testing.T) {
	orig := ConformanceCorpus()
	got, err := DecodeCorpus(EncodeCorpus(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("corpus round trip changed a test")
	}
}

// TestDecodeRejects pins the parser's error cases.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no-header", "cores 2 addrs 2 layout split\np0: st0\np1: st1\n"},
		{"bad-layout", "litmus x\ncores 2 addrs 2 layout diagonal\np0: st0\np1: st1\n"},
		{"core-count-mismatch", "litmus x\ncores 3 addrs 2 layout split\np0: st0\np1: st1\n"},
		{"bad-label", "litmus x\ncores 2 addrs 2 layout split\np1: st0\np0: st1\n"},
		{"unknown-op", "litmus x\ncores 2 addrs 2 layout split\np0: ld0\np1: st1\n"},
		{"slot-out-of-range", "litmus x\ncores 2 addrs 2 layout split\np0: st7\np1: st1\n"},
		{"zero-value", "litmus x\ncores 2 addrs 2 layout split\np0: st0=0\np1: st1\n"},
		{"barrier-with-operand", "litmus x\ncores 1 addrs 1 layout split\np0: fe0\n"},
		{"duplicate-name", "litmus x\ncores 1 addrs 1 layout split\np0: st0\n\nlitmus x\ncores 1 addrs 1 layout split\np0: st0\n"},
		{"bad-name", "litmus a/b\ncores 1 addrs 1 layout split\np0: st0\n"},
		{"empty-program", "litmus x\ncores 1 addrs 1 layout split\np0:\n"},
		{"duplicate-cores-line", "litmus x\ncores 1 addrs 1 layout split\ncores 1 addrs 1 layout split\np0: st0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCorpus(tc.in); err == nil {
				t.Fatalf("accepted malformed corpus:\n%s", tc.in)
			}
		})
	}
}

// TestDecodeSkipsCommentsAndBlanks: the file format tolerates annotation.
func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a regression corpus\n\nlitmus x\n# two cores\ncores 2 addrs 2 layout split\np0: st0 fe st1\n\np1: st0=5\n"
	tests, err := DecodeCorpus(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 1 || tests[0].Name != "x" || len(tests[0].Cores) != 2 {
		t.Fatalf("parsed %+v", tests)
	}
}

// FuzzLitmusDecode: decoding arbitrary bytes must never panic, and any
// input that decodes must round-trip exactly (decode–encode identity).
func FuzzLitmusDecode(f *testing.F) {
	for _, t := range ConformanceCorpus() {
		f.Add(Encode(t))
	}
	for _, t := range Generate(GenOptions{Seed: 99, Count: 20}) {
		f.Add(Encode(t))
	}
	f.Add("litmus x\ncores 2 addrs 2 layout split\np0: st0\np1: st1=5\n")
	f.Add("litmus x\ncores 1 addrs 1 layout packed\np0: rmw0=18446744073709551615\n")
	f.Add("# comment only\n")
	f.Add("litmus \x00\ncores 1 addrs 1 layout split\np0: st0")
	f.Fuzz(func(t *testing.T, data string) {
		t1, err := decodeOne(data)
		if err != nil {
			return
		}
		enc := Encode(t1)
		t2, err := decodeOne(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("decode–encode not the identity:\n%+v\nvs\n%+v", t1, t2)
		}
		if re := Encode(t2); re != enc {
			t.Fatalf("encoding not canonical:\n%q\nvs\n%q", enc, re)
		}
		if strings.Contains(enc, "\x00") {
			t.Fatalf("canonical encoding contains NUL: %q", enc)
		}
	})
}
