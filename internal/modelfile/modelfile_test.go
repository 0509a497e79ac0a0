package modelfile

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

type header struct {
	N    int       `json:"n"`
	Nums []float64 `json:"nums"`
}

// The container on its own; gbt, nn and the serving registry pin it under
// their real headers (every bit flip, every truncation, fuzzing).
func TestArtifactRoundTrip(t *testing.T) {
	body := AppendFloat64s(nil, []float64{1.5, math.Copysign(0, -1), 3e300})
	b, err := Begin("TESTTEST", header{N: 3}, len(body))
	if err != nil {
		t.Fatal(err)
	}
	data := Seal(append(b, body...))
	var h header
	got, err := Open("TESTTEST", data, &h)
	if err != nil || h.N != 3 || !bytes.Equal(got, body) {
		t.Fatalf("Open = %v, header %+v, %d body bytes", err, h, len(got))
	}
	nums := make([]float64, 3)
	if rest := Float64s(nums, got); len(rest) != 0 || nums[0] != 1.5 || !math.Signbit(nums[1]) || nums[2] != 3e300 {
		t.Fatalf("Float64s = %v, %d bytes left", nums, len(rest))
	}
	if _, err := Open("OTHERMAG", data, &h); err == nil {
		t.Error("another magic accepted")
	}
	// A header length pointing past the end, under a valid checksum.
	long := append([]byte(nil), data[:len(data)-4]...)
	long[8], long[9] = 0xff, 0xff
	if _, err := Open("TESTTEST", Seal(long), &h); err == nil || !strings.Contains(err.Error(), "header of") {
		t.Errorf("oversized header length: %v", err)
	}
}
