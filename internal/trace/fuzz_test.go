package trace_test

import (
	"bytes"
	"testing"

	"pciebench/internal/trace"
)

// FuzzRead: Read never panics, and a journal it accepts round-trips
// byte for byte through Buffer.WriteTo.
func FuzzRead(f *testing.F) {
	var journal bytes.Buffer
	if _, err := (&trace.Buffer{Records: sampleRecords(f)}).WriteTo(&journal); err != nil {
		f.Fatal(err)
	}
	f.Add(journal.Bytes())
	f.Add(journal.Bytes()[:journal.Len()-5])
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := trace.Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		var out bytes.Buffer
		n, err := (&trace.Buffer{Records: recs}).WriteTo(&out)
		if err != nil {
			t.Fatalf("%d accepted records do not re-encode: %v", len(recs), err)
		}
		if n != int64(out.Len()) || !bytes.Equal(out.Bytes(), b) {
			t.Fatalf("journal of %d records re-encoded to %d bytes that differ from the %d read", len(recs), out.Len(), len(b))
		}
	})
}
