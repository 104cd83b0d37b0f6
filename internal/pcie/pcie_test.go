package pcie

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerationRates(t *testing.T) {
	cases := []struct {
		gen  Generation
		gtps float64
		lane float64 // usable Gb/s per lane
	}{
		{Gen1, 2.5, 2.0},
		{Gen2, 5.0, 4.0},
		{Gen3, 8.0, 7.8769},
		{Gen4, 16.0, 15.7538},
		{Gen5, 32.0, 31.5077},
	}
	for _, c := range cases {
		if got := c.gen.GTps(); got != c.gtps {
			t.Errorf("%v GTps = %v, want %v", c.gen, got, c.gtps)
		}
		got := c.gen.LaneBitsPerSecond() / 1e9
		if math.Abs(got-c.lane) > 0.001 {
			t.Errorf("%v lane rate = %.4f Gb/s, want %.4f", c.gen, got, c.lane)
		}
	}
}

func TestGen3x8RawBandwidthMatchesPaper(t *testing.T) {
	c := DefaultGen3x8()
	// Paper §3: 8 x 7.87 Gb/s = 62.96 Gb/s at the physical layer.
	got := c.RawBandwidth() / 1e9
	if math.Abs(got-63.0154) > 0.01 {
		t.Errorf("raw bandwidth = %.4f Gb/s, want ~63.02 (paper rounds to 62.96)", got)
	}
	// Paper §3: ~57.88 Gb/s at the TLP layer.
	tlp := c.TLPBandwidth() / 1e9
	if tlp < 57.5 || tlp > 58.2 {
		t.Errorf("TLP bandwidth = %.4f Gb/s, want ~57.88", tlp)
	}
}

func TestHeaderSizesMatchPaperAccounting(t *testing.T) {
	// §3: MWr_Hdr is 24B (2B framing, 6B DLL, 4B TLP hdr, 12B MWr hdr).
	if got := MWrHeaderBytes(true, false); got != 24 {
		t.Errorf("MWrHeaderBytes(64bit) = %d, want 24", got)
	}
	if got := MRdHeaderBytes(true, false); got != 24 {
		t.Errorf("MRdHeaderBytes(64bit) = %d, want 24", got)
	}
	// §3: CplD header is 20B.
	if got := CplDHeaderBytes(false); got != 20 {
		t.Errorf("CplDHeaderBytes = %d, want 20", got)
	}
	// 32-bit addressing saves one DW.
	if got := MWrHeaderBytes(false, false); got != 20 {
		t.Errorf("MWrHeaderBytes(32bit) = %d, want 20", got)
	}
	// ECRC adds 4B.
	if got := MWrHeaderBytes(true, true); got != 28 {
		t.Errorf("MWrHeaderBytes(64bit,ecrc) = %d, want 28", got)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultGen3x8()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LinkConfig)
		want error
	}{
		{"gen0", func(c *LinkConfig) { c.Gen = 0 }, ErrBadGeneration},
		{"gen9", func(c *LinkConfig) { c.Gen = 9 }, ErrBadGeneration},
		{"lanes3", func(c *LinkConfig) { c.Lanes = 3 }, ErrBadLanes},
		{"lanes0", func(c *LinkConfig) { c.Lanes = 0 }, ErrBadLanes},
		{"mps100", func(c *LinkConfig) { c.MPS = 100 }, ErrBadMPS},
		{"mps64", func(c *LinkConfig) { c.MPS = 64 }, ErrBadMPS},
		{"mps8192", func(c *LinkConfig) { c.MPS = 8192 }, ErrBadMPS},
		{"mrrs100", func(c *LinkConfig) { c.MRRS = 100 }, ErrBadMRRS},
		{"rcb32", func(c *LinkConfig) { c.RCB = 32 }, ErrBadRCB},
		{"rcb256", func(c *LinkConfig) { c.RCB = 256 }, ErrBadRCB},
		{"ovhneg", func(c *LinkConfig) { c.DLLOverhead = -0.1 }, ErrBadOverhead},
		{"ovhbig", func(c *LinkConfig) { c.DLLOverhead = 0.5 }, ErrBadOverhead},
	}
	for _, tc := range cases {
		c := good
		tc.mut(&c)
		if err := c.Validate(); err != tc.want {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestTLPCounts(t *testing.T) {
	c := DefaultGen3x8() // MPS 256, MRRS 512
	cases := []struct {
		sz             int
		mwr, mrd, cpld int
	}{
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{64, 1, 1, 1},
		{256, 1, 1, 1},
		{257, 2, 1, 2},
		{512, 2, 1, 2},
		{513, 3, 2, 3},
		{1024, 4, 2, 4},
		{1500, 6, 3, 6},
		{2048, 8, 4, 8},
	}
	for _, tc := range cases {
		if got := c.MWrTLPs(tc.sz); got != tc.mwr {
			t.Errorf("MWrTLPs(%d) = %d, want %d", tc.sz, got, tc.mwr)
		}
		if got := c.MRdTLPs(tc.sz); got != tc.mrd {
			t.Errorf("MRdTLPs(%d) = %d, want %d", tc.sz, got, tc.mrd)
		}
		if got := c.CplDTLPs(tc.sz); got != tc.cpld {
			t.Errorf("CplDTLPs(%d) = %d, want %d", tc.sz, got, tc.cpld)
		}
	}
}

// CplDTLPs must count completions request by request: a read of sz
// bytes issues MRRS-sized requests and each is answered in MPS-sized
// completions of its own, even when MRRS < MPS.
func TestCplDTLPsPerRequest(t *testing.T) {
	brute := func(c LinkConfig, sz int) int {
		n := 0
		for left := sz; left > 0; left -= c.MRRS {
			req := min(left, c.MRRS)
			n += (req + c.MPS - 1) / c.MPS
		}
		return n
	}
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	for gen := Gen1; gen <= Gen5; gen++ {
		for _, mps := range sizes {
			for _, mrrs := range sizes {
				c := DefaultGen3x8()
				c.Gen, c.MPS, c.MRRS = gen, mps, mrrs
				if err := c.Validate(); err != nil {
					t.Fatal(err)
				}
				for sz := 1; sz <= 9000; sz++ {
					if got, want := c.CplDTLPs(sz), brute(c, sz); got != want {
						t.Fatalf("%v: CplDTLPs(%d) = %d, want %d", c, sz, got, want)
					}
				}
			}
		}
	}
	// The case the per-transfer count got wrong: MRRS 128 below MPS
	// 256 needs one completion per 128 B request.
	c := DefaultGen3x8()
	c.MRRS = 128
	if got := c.CplDTLPs(1024); got != 8 {
		t.Errorf("MPS 256 MRRS 128: CplDTLPs(1024) = %d, want 8", got)
	}
}

func TestWireByteEquations(t *testing.T) {
	c := DefaultGen3x8()
	// Equation 1: a 512B write = 2 TLPs x 24B header + 512B payload.
	if got := c.WriteBytes(512); got != 2*24+512 {
		t.Errorf("WriteBytes(512) = %d, want %d", got, 2*24+512)
	}
	// Equation 2: a 1024B read issues 2 MRd requests (MRRS=512).
	if got := c.ReadRequestBytes(1024); got != 2*24 {
		t.Errorf("ReadRequestBytes(1024) = %d, want 48", got)
	}
	// Equation 3: completions in MPS=256 chunks.
	if got := c.ReadCompletionBytes(1024); got != 4*20+1024 {
		t.Errorf("ReadCompletionBytes(1024) = %d, want %d", got, 4*20+1024)
	}
}

func TestWriteBytesMonotone(t *testing.T) {
	c := DefaultGen3x8()
	f := func(a, b uint16) bool {
		x, y := int(a%4096), int(b%4096)
		if x > y {
			x, y = y, x
		}
		return c.WriteBytes(x) <= c.WriteBytes(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadBytesAlwaysExceedPayload(t *testing.T) {
	c := DefaultGen3x8()
	f := func(a uint16) bool {
		sz := int(a%8192) + 1
		return c.ReadCompletionBytes(sz) > sz && c.ReadRequestBytes(sz) >= 24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesTime(t *testing.T) {
	c := DefaultGen3x8()
	if got := c.BytesTime(0); got != 0 {
		t.Errorf("BytesTime(0) = %d, want 0", got)
	}
	// 57.88 Gb/s -> one 64B TLP payload ~ 8.85ns.
	got := c.BytesTime(64)
	if got < 8500 || got > 9200 {
		t.Errorf("BytesTime(64) = %dps, want ~8850ps", got)
	}
	// Doubling bytes should roughly double time.
	t1, t2 := c.BytesTime(1000), c.BytesTime(2000)
	if t2 < 2*t1-2 || t2 > 2*t1+2 {
		t.Errorf("BytesTime not linear: %d vs %d", t1, t2)
	}
}

func TestString(t *testing.T) {
	c := DefaultGen3x8()
	want := "Gen3 x8 MPS=256 MRRS=512 RCB=64"
	if got := c.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := Generation(7).String(); got != "Gen?(7)" {
		t.Errorf("bad gen String() = %q", got)
	}
}
