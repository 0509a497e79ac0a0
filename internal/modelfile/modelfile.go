// Package modelfile is the one container every file of a serving bundle is
// sealed in — the gbt and nn models, the reference histograms and the
// manifest that names and pins them:
//
//	magic[8] | uint32 header length | header (JSON) | body | CRC-32C
//
// all little-endian. The header carries the small, named fields; the body
// the bulk numbers as IEEE-754 bit patterns, laid out by the owning package;
// the checksum covers every byte before it.
package modelfile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Begin starts an artifact — the 8-byte magic, the header's length and its
// JSON — with room for bodyBytes and the checksum. The caller appends the
// body and calls Seal.
func Begin(magic string, header any, bodyBytes int) ([]byte, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(magic)+4+len(h)+bodyBytes+4)
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h)))
	return append(b, h...), nil
}

// Seal appends the checksum of everything written so far.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// Open checks data's magic and checksum — so a flipped bit anywhere is
// caught before a field is believed — decodes the header into header and
// returns the body. The header must be byte-for-byte what Begin would write
// for the decoded value: one model has one encoding, and a field the header
// struct does not know is an error, not ignored.
func Open(magic string, data []byte, header any) (body []byte, err error) {
	hdr := len(magic) + 4
	if len(data) < hdr+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("not a %q artifact", magic)
	}
	end := len(data) - 4
	if sum := crc32.Checksum(data[:end], castagnoli); sum != binary.LittleEndian.Uint32(data[end:]) {
		return nil, errors.New("checksum mismatch")
	}
	rest := data[hdr:end]
	hlen := binary.LittleEndian.Uint32(data[len(magic):])
	if uint64(hlen) > uint64(len(rest)) {
		return nil, fmt.Errorf("header of %d bytes in a file with %d left", hlen, len(rest))
	}
	raw := rest[:hlen]
	if err := json.Unmarshal(raw, header); err != nil {
		return nil, fmt.Errorf("decoding header: %w", err)
	}
	if canon, err := json.Marshal(header); err != nil || !bytes.Equal(canon, raw) {
		return nil, errors.New("header is not in canonical form")
	}
	return rest[hlen:], nil
}

// AppendFloat64s appends v's bit patterns to b.
func AppendFloat64s(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// Float64s fills dst from the front of b and returns what follows; the
// caller has checked that b holds 8*len(dst) bytes.
func Float64s(dst []float64, b []byte) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return b[8*len(dst):]
}
