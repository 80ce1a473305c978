package recovery

import (
	"errors"
	"fmt"
	"testing"

	"ppa/internal/checkpoint"
)

// TestClassifyMatchesWrappedText: a detection reads exactly as the
// "%w: %v" wrapping of its sentinel and cause, and unwraps the same way:
// to the sentinel alone, never to the codec error it formats.
func TestClassifyMatchesWrappedText(t *testing.T) {
	for _, c := range []struct {
		cause error
		kind  error
	}{
		{fmt.Errorf("%w: section 2 crc 0x1 != 0x2", checkpoint.ErrChecksum), ErrChecksum},
		{fmt.Errorf("%w: need 64 bytes, have 12", checkpoint.ErrTruncated), ErrTornCheckpoint},
		{checkpoint.ErrBadMagic, ErrTornCheckpoint},
	} {
		got := classify(c.cause)
		want := fmt.Errorf("%w: %v", c.kind, c.cause)
		if got.Error() != want.Error() {
			t.Errorf("classify(%v) reads %q, want %q", c.cause, got, want)
		}
		if !errors.Is(got, c.kind) || !IsDetection(got) {
			t.Errorf("classify(%v) = %v is not a %v detection", c.cause, got, c.kind)
		}
		if errors.Is(got, c.cause) != errors.Is(want, c.cause) {
			t.Errorf("classify(%v) unwraps to its cause: %v", c.cause, errors.Is(got, c.cause))
		}
	}
}
