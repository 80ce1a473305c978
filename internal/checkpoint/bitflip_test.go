package checkpoint

import (
	"errors"
	"testing"
)

// TestEveryBitFlipDetected is the exhaustive detection-coverage argument
// for the v2 wire format: the header CRC covers magic, version, and total
// length; each section CRC covers its length word and payload; so there is
// no bit in an encoded image whose flip survives Decode. This is what the
// torture harness's bit-flip class relies on.
func TestEveryBitFlipDetected(t *testing.T) {
	blob := liveImage(t, "mcf", 6000, 6000).Encode()
	mut := make([]byte, len(blob))
	copy(mut, blob)
	for bit := 0; bit < len(blob)*8; bit++ {
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip of bit %d (byte %d) was not detected", bit, bit/8)
		}
		mut[bit/8] ^= 1 << (bit % 8)
	}
}

// TestEveryTruncationDetected: a dump cut at any byte boundary — the torn
// checkpoint a browned-out capacitor leaves — must fail to decode with the
// typed taxonomy (never succeed, never panic).
func TestEveryTruncationDetected(t *testing.T) {
	blob := liveImage(t, "gcc", 6000, 6000).Encode()
	for n := 0; n < len(blob); n++ {
		_, err := Decode(blob[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes was not detected", n, len(blob))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
			!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
			!errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes gave untyped error: %v", n, err)
		}
	}
}
