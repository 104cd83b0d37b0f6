package tlp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode: Decode never panics, and a packet it accepts re-encodes
// with AppendTo to as many bytes as it consumed, which decode to an
// equal packet.
func FuzzDecode(f *testing.F) {
	for _, p := range []Packet{
		&MemRead{Requester: MakeDeviceID(1, 2, 3), Tag: 42, Addr: 0x1234_5678, FirstBE: 0xF, LastBE: 0x3, LengthDW: 16, TC: 2},
		&MemRead{Requester: MakeDeviceID(1, 2, 3), Tag: 42, Addr: 0x8_1234_5678, FirstBE: 0xF, LastBE: 0x3, LengthDW: 16, TC: 2, Addr64: true},
		&MemRead{LengthDW: 1024, Addr: 0x1000, FirstBE: 0xF, LastBE: 0xF},
		&MemWrite{Requester: MakeDeviceID(0, 3, 0), Addr: 0xF000, FirstBE: 0xF, LastBE: 0x1, Addr64: true, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		&Completion{Status: CplSuccess, ByteCount: 256, Requester: MakeDeviceID(2, 0, 1), Tag: 17, LowerAddr: 0x40, Data: bytes.Repeat([]byte{0xAB}, 64)},
		&Completion{Status: CplUnsupported, ByteCount: 4, Tag: 3},
		&Completion{ByteCount: 4096, Data: make([]byte, 128)},
	} {
		b, err := p.AppendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{0xFF, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, n, err := Decode(b)
		if err != nil {
			return
		}
		if n < 4 || n > len(b) {
			t.Fatalf("%s: consumed %d of %d bytes", p, n, len(b))
		}
		enc, err := p.AppendTo(nil)
		if err != nil {
			t.Fatalf("%s: accepted packet does not re-encode: %v", p, err)
		}
		if len(enc) != n {
			t.Fatalf("%s: re-encoded to %d bytes, decoded from %d", p, len(enc), n)
		}
		q, m, err := Decode(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("%s: re-encoding does not decode (%d of %d bytes): %v", p, m, len(enc), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n got %s\nwant %s", q, p)
		}
	})
}
