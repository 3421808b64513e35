package memsim

import "testing"

// TestFigure4aShape reproduces the qualitative behaviour of Figure 4a: with
// NUMA-local allocation and 96 threads, doubling the allocation from 80 to
// 160 (scaled) GB roughly doubles the time on both machines; going from 160
// to 320 roughly doubles again on DRAM (spill doubles bandwidth) but blows
// up on Optane (near-memory conflict misses).
func TestFigure4aShape(t *testing.T) {
	write := func(cfg MachineConfig, gb float64) float64 {
		m := NewMachine(cfg)
		return m.WriteMicro(ScaledBytes(gb), Local, 96).ElapsedSec
	}

	d80, d160, d320 := write(DRAMMachine(), 80), write(DRAMMachine(), 160), write(DRAMMachine(), 320)
	o80, o160, o320 := write(OptaneMachine(), 80), write(OptaneMachine(), 160), write(OptaneMachine(), 320)

	ratio := func(a, b float64) float64 { return b / a }

	// 80 -> 160: ~2x more work, ~2x more time everywhere.
	if r := ratio(d80, d160); r < 1.6 || r > 2.5 {
		t.Errorf("DRAM 80->160 ratio = %.2f, want ~2", r)
	}
	if r := ratio(o80, o160); r < 1.6 || r > 2.5 {
		t.Errorf("Optane 80->160 ratio = %.2f, want ~2", r)
	}
	// 160 -> 320 on DRAM: spill to socket 1 doubles bandwidth, so time
	// grows far less than the Optane case.
	dRatio := ratio(d160, d320)
	oRatio := ratio(o160, o320)
	if oRatio < 3.5 {
		t.Errorf("Optane 160->320 ratio = %.2f, want >= 3.5 (paper: 5.6)", oRatio)
	}
	if dRatio > oRatio/1.5 {
		t.Errorf("DRAM 160->320 ratio %.2f should be far below Optane's %.2f", dRatio, oRatio)
	}
}

// TestFigure4bShape: with a 320 (scaled) GB interleaved vs blocked
// allocation, blocked with 24 threads degrades badly on Optane (all pages on
// one socket, conflict misses) while interleaved stays moderate; at 48
// threads blocked beats interleaved (same residency, fewer remote accesses).
func TestFigure4bShape(t *testing.T) {
	run := func(cfg MachineConfig, policy Policy, threads int) float64 {
		m := NewMachine(cfg)
		return m.WriteMicro(ScaledBytes(320), policy, threads).ElapsedSec
	}

	oBlk24 := run(OptaneMachine(), Blocked, 24)
	oInt24 := run(OptaneMachine(), Interleaved, 24)
	oBlk48 := run(OptaneMachine(), Blocked, 48)
	oInt48 := run(OptaneMachine(), Interleaved, 48)

	if oBlk24 < 2*oInt24 {
		t.Errorf("Optane blocked@24 (%.3fs) should be >= 2x interleaved@24 (%.3fs); paper: 9x", oBlk24, oInt24)
	}
	if oBlk48 > oInt48 {
		t.Errorf("Optane blocked@48 (%.3fs) should beat interleaved@48 (%.3fs)", oBlk48, oInt48)
	}

	// On DRAM the two policies are close at both thread counts.
	dBlk48 := run(DRAMMachine(), Blocked, 48)
	dInt48 := run(DRAMMachine(), Interleaved, 48)
	if dBlk48 > 1.5*dInt48 || dInt48 > 1.5*dBlk48 {
		t.Errorf("DRAM blocked (%.3f) vs interleaved (%.3f) should be similar", dBlk48, dInt48)
	}
}

// TestTable2LatencyShape checks the latency matrix ordering: memory-mode
// local < memory-mode remote < app-direct remote, app-direct local between.
func TestTable2LatencyShape(t *testing.T) {
	const accesses = 20000
	lat := func(cfg MachineConfig, local, appDirect bool) float64 {
		m := NewMachine(cfg)
		return m.LatencyMicro(local, accesses, ScaledBytes(16), appDirect).NsPerOp
	}
	mmLocal := lat(OptaneMachine(), true, false)
	mmRemote := lat(OptaneMachine(), false, false)
	adLocal := lat(AppDirectMachine(), true, true)
	adRemote := lat(AppDirectMachine(), false, true)

	if !(mmLocal < mmRemote) {
		t.Errorf("MM local %.0f should be < MM remote %.0f", mmLocal, mmRemote)
	}
	if !(adLocal < adRemote) {
		t.Errorf("AD local %.0f should be < AD remote %.0f", adLocal, adRemote)
	}
	if !(mmLocal < adLocal) {
		t.Errorf("MM local %.0f should be < AD local %.0f", mmLocal, adLocal)
	}
	// Ballpark: paper reports 95/150/164/232 ns; allow generous margins
	// for the L3 and TLB residue in the micro.
	within := func(got, want float64) bool { return got > want*0.7 && got < want*1.6 }
	if !within(mmLocal, 95) {
		t.Errorf("MM local latency %.0f ns, want ~95", mmLocal)
	}
	if !within(adRemote, 232) {
		t.Errorf("AD remote latency %.0f ns, want ~232", adRemote)
	}
}

// TestTable1BandwidthShape checks the bandwidth matrix orderings that drive
// the paper's conclusions: memory mode beats app-direct everywhere,
// sequential beats random in app-direct, remote loses to local.
func TestTable1BandwidthShape(t *testing.T) {
	bw := func(cfg MachineConfig, p BandwidthPattern, local bool, ad bool) float64 {
		m := NewMachine(cfg)
		return m.BandwidthMicro(p, local, 48, ScaledBytes(32), ad).GBPerSec
	}
	mmSeqRead := bw(OptaneMachine(), SeqRead, true, false)
	mmRandReadRemote := bw(OptaneMachine(), RandRead, false, false)
	adSeqRead := bw(AppDirectMachine(), SeqRead, true, true)
	adRandWrite := bw(AppDirectMachine(), RandWrite, true, true)

	if !(mmSeqRead > adSeqRead) {
		t.Errorf("MM seq read %.1f should beat AD seq read %.1f", mmSeqRead, adSeqRead)
	}
	if !(adSeqRead > adRandWrite) {
		t.Errorf("AD seq read %.1f should beat AD rand write %.1f", adSeqRead, adRandWrite)
	}
	if !(mmSeqRead > mmRandReadRemote) {
		t.Errorf("MM seq read local %.1f should beat MM rand read remote %.1f", mmSeqRead, mmRandReadRemote)
	}
}

func TestBandwidthPatternString(t *testing.T) {
	for p, want := range map[BandwidthPattern]string{
		SeqRead: "seq-read", SeqWrite: "seq-write", RandRead: "rand-read", RandWrite: "rand-write",
	} {
		if p.String() != want {
			t.Errorf("pattern %d string = %q want %q", int(p), p.String(), want)
		}
	}
}

func TestWriteMicroCountsBytes(t *testing.T) {
	m := NewMachine(DRAMMachine())
	res := m.WriteMicro(ScaledBytes(8), Interleaved, 8)
	if res.Counters.BytesWritten != uint64(ScaledBytes(8)) {
		t.Errorf("bytes written = %d, want %d", res.Counters.BytesWritten, ScaledBytes(8))
	}
	if res.ElapsedSec <= 0 {
		t.Error("no elapsed time")
	}
}

// TestBandwidthMicroReadsItsBuffer checks that a sequential read micro
// splits its buffer over the threads its region actually runs: every byte
// is read once, at any thread count.
func TestBandwidthMicroReadsItsBuffer(t *testing.T) {
	bytes := ScaledBytes(32)
	for _, threads := range []int{24, 48, 64, 96} {
		res := NewMachine(OptaneMachine()).BandwidthMicro(SeqRead, true, threads, bytes, false)
		if res.Counters.BytesRead != uint64(bytes) {
			t.Errorf("%d threads read %d bytes of a %d-byte buffer", threads, res.Counters.BytesRead, bytes)
		}
	}
}
