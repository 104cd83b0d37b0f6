package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"pciebench/internal/mem"
	"pciebench/internal/pcie"
	"pciebench/internal/rc"
	"pciebench/internal/sim"
	"pciebench/internal/tlp"
	"pciebench/internal/trace"
)

func sampleRecords(t testing.TB) []trace.Record {
	t.Helper()
	rd := tlp.MemRead{Addr: 0x1000, LengthDW: 16, FirstBE: 0xF, LastBE: 0xF, Addr64: true, Tag: 3}
	rdBytes, err := rd.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	cpl := tlp.Completion{ByteCount: 64, Data: make([]byte, 64), Tag: 3}
	cplBytes, err := cpl.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return []trace.Record{
		{At: 100 * sim.Nanosecond, Dir: trace.DeviceToHost, TLP: rdBytes},
		{At: 500 * sim.Nanosecond, Dir: trace.HostToDevice, TLP: cplBytes},
	}
}

func TestBufferTracer(t *testing.T) {
	var b trace.Buffer
	data := []byte{1, 2, 3, 4}
	b.Trace(10, trace.DeviceToHost, data)
	data[0] = 99 // the tracer must have copied
	if b.Records[0].TLP[0] != 1 {
		t.Error("tracer aliased the TLP slice")
	}
}

func TestBufferLimit(t *testing.T) {
	b := trace.Buffer{Limit: 2}
	for i := 0; i < 5; i++ {
		b.Trace(sim.Time(i), trace.DeviceToHost, []byte{byte(i)})
	}
	if len(b.Records) != 2 || b.Dropped != 3 {
		t.Errorf("records=%d dropped=%d", len(b.Records), b.Dropped)
	}
	if b.Records[0].TLP[0] != 3 || b.Records[1].TLP[0] != 4 {
		t.Error("kept the wrong records")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	b := trace.Buffer{Records: sampleRecords(t)}
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range got {
		if got[i].At != b.Records[i].At || got[i].Dir != b.Records[i].Dir ||
			!bytes.Equal(got[i].TLP, b.Records[i].TLP) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestReadCorrupt(t *testing.T) {
	b := trace.Buffer{Records: sampleRecords(t)}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := trace.Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated journal accepted")
	}
	if _, err := trace.Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage journal accepted")
	}
}

func TestDump(t *testing.T) {
	out := trace.Dump(sampleRecords(t))
	for _, want := range []string{"MRd", "CplD", "D->H", "H->D", "100.0ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Undecodable records are reported, not dropped.
	bad := trace.Dump([]trace.Record{{At: 1, TLP: []byte{0xFF, 0, 0, 1}}})
	if !strings.Contains(bad, "UNDECODABLE") {
		t.Errorf("bad record dump: %s", bad)
	}
}

func TestSummarize(t *testing.T) {
	s := trace.Summarize(sampleRecords(t))
	if s.Records != 2 || s.UpTLPs != 1 || s.DownTLPs != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.ByKind[tlp.KindMemRead] != 1 || s.ByKind[tlp.KindCplD] != 1 {
		t.Errorf("kinds: %+v", s.ByKind)
	}
	if s.First != 100*sim.Nanosecond || s.Last != 500*sim.Nanosecond {
		t.Errorf("span: %v..%v", s.First, s.Last)
	}
}

// End-to-end: trace a DMA read through the root complex and verify the
// captured TLPs decode into the expected request/completion sequence
// with correct splitting.
func TestRootComplexTracing(t *testing.T) {
	k := sim.New(1)
	ms, err := mem.NewSystem(mem.Config{
		Nodes:       1,
		Cache:       mem.CacheConfig{SizeBytes: 1 << 20, Ways: 8, LineSize: 64, DDIOWays: 2},
		LLCLatency:  50 * sim.Nanosecond,
		DRAMLatency: 120 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	complex, err := rc.New(k, rc.Config{
		Link:        pcie.DefaultGen3x8(),
		PipeLatency: 100 * sim.Nanosecond,
		PipeSlots:   24,
		WireDelay:   120 * sim.Nanosecond,
	}, ms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	complex.SetTracer(&buf)

	// A 1024B read: 2 MRd (MRRS 512) + 4 CplD (MPS 256).
	if _, err := complex.DMARead(0, 0x2000, 1024); err != nil {
		t.Fatal(err)
	}
	// A 300B write: 2 MWr (crosses one MPS boundary from 0x2F80).
	if _, err := complex.DMAWrite(0, 0x2F80, 300); err != nil {
		t.Fatal(err)
	}

	s := trace.Summarize(buf.Records)
	if s.ByKind[tlp.KindMemRead] != 2 {
		t.Errorf("MRd = %d, want 2", s.ByKind[tlp.KindMemRead])
	}
	if s.ByKind[tlp.KindCplD] != 4 {
		t.Errorf("CplD = %d, want 4", s.ByKind[tlp.KindCplD])
	}
	if s.ByKind[tlp.KindMemWrite] != 2 {
		t.Errorf("MWr = %d, want 2", s.ByKind[tlp.KindMemWrite])
	}
	// Every record decodes; completion payloads sum to the read size.
	total := 0
	for _, r := range buf.Records {
		p, err := r.Decode()
		if err != nil {
			t.Fatalf("undecodable record: %v", err)
		}
		if c, ok := p.(*tlp.Completion); ok {
			total += len(c.Data)
		}
	}
	if total != 1024 {
		t.Errorf("completion payload total = %d, want 1024", total)
	}
	// Timestamps are non-decreasing per direction.
	var lastUp, lastDown sim.Time
	for _, r := range buf.Records {
		if r.Dir == trace.DeviceToHost {
			if r.At < lastUp {
				t.Error("up timestamps decreased")
			}
			lastUp = r.At
		} else {
			if r.At < lastDown {
				t.Error("down timestamps decreased")
			}
			lastDown = r.At
		}
	}
}
