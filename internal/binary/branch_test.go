package binary

import (
	"strings"
	"testing"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// buildBranch constructs a representative binary branch: binary conv,
// pooling, batch norm, binary FC, float classifier.
func buildBranch(g *tensor.RNG) *nn.Sequential {
	return nn.NewSequential("branch",
		NewConv2D("bconv", g, 3, 8, 3, 3, 1, 1),
		nn.NewMaxPool2D("bpool", 2, 2, 0),
		nn.NewBatchNorm("bbn", 8),
		nn.NewFlatten("bflat"),
		NewLinear("bfc", g, 8*4*4, 16),
		nn.NewBatchNorm("bbn2", 16),
		nn.NewLinear("bout", g, 16, 10),
	)
}

func TestPackedBranchMatchesFloatSimulation(t *testing.T) {
	g := tensor.NewRNG(1)
	branch := buildBranch(g)
	// Give batch norms non-trivial running statistics.
	x := g.Uniform(-1, 1, 8, 3, 8, 8)
	branch.Forward(x, true)

	pb := PackBranch(branch)
	probe := g.Uniform(-1, 1, 2, 3, 8, 8)
	want := branch.Forward(probe, false)
	got := pb.Forward(probe)
	if !tensor.Equal(want, got, 1e-3) {
		t.Fatal("packed branch disagrees with float simulation")
	}
}

func TestPackedBranchStageComposition(t *testing.T) {
	g := tensor.NewRNG(2)
	pb := PackBranch(buildBranch(g))
	if pb.Stages() != 7 {
		t.Fatalf("stages = %d, want 7", pb.Stages())
	}
	s := pb.String()
	if !strings.Contains(s, "2 packed") || !strings.Contains(s, "5 float") {
		t.Fatalf("composition summary wrong: %s", s)
	}
}

func TestPackedBranchSizeBytesFarBelowFloat(t *testing.T) {
	g := tensor.NewRNG(3)
	branch := buildBranch(g)
	pb := PackBranch(branch)
	var floatBytes int64
	for _, p := range branch.Params() {
		floatBytes += int64(p.Value.Len()) * 4
	}
	if pb.SizeBytes() >= floatBytes/2 {
		t.Fatalf("packed %d bytes vs float %d: insufficient compression", pb.SizeBytes(), floatBytes)
	}
}

func TestPackBranchRejectsResiduals(t *testing.T) {
	g := tensor.NewRNG(4)
	res := nn.NewResidual("res",
		nn.NewSequential("body", nn.NewConv2D("c", g, 3, 3, 3, 3, 1, 1)), nil)
	seq := nn.NewSequential("bad", res)
	defer func() {
		if recover() == nil {
			t.Fatal("residual branch did not panic")
		}
	}()
	PackBranch(seq)
}

// With an arena installed the packed branch must give the same bits as
// the allocating path and, once warm, allocate nothing per forward — with
// one worker and with chunked ParallelFor dispatch.
func TestPackedBranchZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race runtime allocates; budget only meaningful without -race")
	}
	g := tensor.NewRNG(5)
	branch := buildBranch(g)
	branch.Forward(g.Uniform(-1, 1, 8, 3, 8, 8), true)
	x := g.Uniform(-1, 1, 1, 3, 8, 8)
	want := PackBranch(branch).Forward(x)

	pb := PackBranch(branch)
	arena := tensor.NewArena()
	pb.SetArena(arena)
	for _, workers := range []int{1, 4} {
		prev := tensor.SetMaxWorkers(workers)
		for i := 0; i < 2; i++ { // grow the slabs, then confirm they settled
			arena.Reset()
			requireSameBits(t, "arena branch", want, pb.Forward(x))
		}
		avg := testing.AllocsPerRun(50, func() {
			arena.Reset()
			pb.Forward(x)
		})
		tensor.SetMaxWorkers(prev)
		if avg != 0 {
			t.Fatalf("workers=%d: steady-state PackedBranch.Forward allocates %.1f objects/op, want 0", workers, avg)
		}
	}
}
