package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"fnr/internal/graph"
)

// killResumeBatch is the shared batch of the kill/resume pair: the
// child process and the in-process reference must construct the
// identical batch from nothing but this function.
func killResumeBatch() (Batch, error) {
	rng := rand.New(rand.NewPCG(3, 0x6b696c6c))
	g, err := graph.PlantedMinDegree(96, 16, rng)
	if err != nil {
		return Batch{}, err
	}
	sa := graph.Vertex(0)
	return Batch{
		Graph: g, StartA: sa, StartB: g.Adj(sa)[0],
		Algorithm: "whiteboard", Delta: g.MinDegree(),
		Trials: 60_000, Seed: 23, MaxRounds: 1 << 22,
		Faults: &FaultPlan{Seed: 6, PPanic: 1e-3, PBuildErr: 1e-3},
	}, nil
}

// TestKillResumeChild is the subprocess body of
// TestKillResumeByteIdenticalAggregate — a no-op unless re-executed
// with the journal path in the environment. It runs the shared batch
// checkpointed with a tight flush cadence and is expected to be
// SIGKILLed somewhere in the middle.
func TestKillResumeChild(t *testing.T) {
	path := os.Getenv("FNR_KILL_RESUME_JOURNAL")
	if path == "" {
		t.Skip("not a kill/resume child")
	}
	b, err := killResumeBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReduced(context.Background(), b, Checkpoint{Path: path, Every: 512}, nil); err != nil {
		t.Fatal(err)
	}
}

// The crash-safety acceptance test: SIGKILL a checkpointed run midway
// through, resume from whatever journal the corpse left behind, and
// the final aggregate JSON is byte-identical to an uninterrupted run.
func TestKillResumeByteIdenticalAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	b, err := killResumeBatch()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(want.Aggregate(b))

	journal := filepath.Join(t.TempDir(), "kill.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillResumeChild$", "-test.v")
	cmd.Env = append(os.Environ(), "FNR_KILL_RESUME_JOURNAL="+journal)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	childDone := make(chan error, 1)
	go func() { childDone <- cmd.Wait() }()

	// Kill as soon as the first journal flush lands — mid-run if the
	// child is still going, harmlessly late if it already finished (a
	// complete journal resumes to a no-op and the assertion holds
	// either way).
	deadline := time.After(2 * time.Minute)
	var killed bool
waitForJournal:
	for {
		select {
		case err := <-childDone:
			if err != nil {
				t.Fatalf("child exited before a journal appeared: %v", err)
			}
			break waitForJournal
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("no journal flush within two minutes")
		default:
			if st, err := os.Stat(journal); err == nil && st.Size() > 0 {
				cmd.Process.Kill() // SIGKILL: no deferred cleanup runs
				killed = true
				<-childDone
				break waitForJournal
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !killed {
		t.Log("child finished before the kill; resuming a complete journal instead")
	}

	prior, err := ReadCheckpointFile(journal, b)
	if err != nil {
		t.Fatalf("journal left by the killed child is unreadable: %v", err)
	}
	if covered := prior.trials; killed && covered >= b.Trials {
		t.Logf("child covered all %d trials before dying", covered)
	}
	r, err := RunReduced(t.Context(), b, Checkpoint{Path: journal}, prior)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, _ := json.Marshal(r.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("kill -9 + resume aggregate differs from uninterrupted run:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
	if fmt.Sprint(r.Spans()) != fmt.Sprintf("[{0 %d}]", b.Trials) {
		t.Errorf("resumed coverage %v, want the full range", r.Spans())
	}
}
