package era

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"era/internal/alphabet"
	"era/internal/vfs"
	"era/internal/workload"
)

// Tests of the in-place tier writer: a directory-mode seal or compaction
// builds its tier straight into the mapped tier file (fileSink).

// tmpFiles lists the *.tmp files in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// sliceCorpus cuts n generated symbols of kind into docs documents.
func sliceCorpus(t testing.TB, kind workload.Kind, n, docs int, seed int64) [][]byte {
	t.Helper()
	data := workload.MustGenerate(kind, n, seed)
	out, err := workload.SliceDocs(data[:n], docs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// noAllocFS is a filesystem that cannot reserve blocks, like one without
// fallocate (or a platform without it): a tier must then be built on the heap
// and streamed.
type noAllocFS struct{ vfs.FS }

type noAllocFile struct{ vfs.File }

func (f noAllocFS) Create(name string) (vfs.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return noAllocFile{fl}, nil
}

func (noAllocFile) Allocate(int64) error { return fmt.Errorf("allocate: %w", errors.ErrUnsupported) }

// TestTierWrittenInPlaceIsWriteFile pins byte identity: a tier the seal
// builds in its file is the file WriteFile writes of the heap build of the
// same documents, whichever builder ran — the suffix array, serial ERA, or
// SharedDisk ERA on two workers at a budget under 14 B/symbol — and on a
// filesystem that cannot reserve blocks, where the tier is streamed instead.
// No build leaves a tmp file.
func TestTierWrittenInPlaceIsWriteFile(t *testing.T) {
	const n = 32 << 10
	docs := sliceCorpus(t, workload.DNA, n, 24, 9)
	for _, c := range []struct {
		name     string
		cfg      Config
		fs       vfs.FS
		inMemory bool
	}{
		{"suffix-array", Config{Alphabet: alphabet.DNA}, nil, true},
		{"serial-era", Config{Alphabet: alphabet.DNA, MemoryBudget: 13 * n}, nil, false},
		{"shared-disk-2", Config{Alphabet: alphabet.DNA, MemoryBudget: 13 * n, Mode: SharedDisk, Workers: 2}, nil, false},
		{"no-fallocate", Config{Alphabet: alphabet.DNA}, noAllocFS{vfs.OS}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			heap, err := BuildCorpus(docs, &c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if heap.Stats().InMemory != c.inMemory {
				t.Fatalf("built in memory = %v, want %v", heap.Stats().InMemory, c.inMemory)
			}
			ref := filepath.Join(t.TempDir(), "ref.idx")
			if err := heap.WriteFile(ref); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			cfg := neverSeal(dir)
			cfg.Build, cfg.fs = &c.cfg, c.fs
			lx, err := NewLive("", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lx.Close()
			if _, err := lx.Append(docs); err != nil {
				t.Fatal(err)
			}
			if err := lx.Seal(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(liveTierPattern, 0)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("the tier written in place (%d bytes) differs from WriteFile of the heap build (%d bytes)", len(got), len(want))
			}
			if tmps := tmpFiles(t, dir); len(tmps) > 0 {
				t.Fatalf("the seal left %v", tmps)
			}
		})
	}
}

// TestLiveTierBuildAllocatesItsWorkingSet pins what building a tier in its
// file saves: a directory-mode seal of 128 Ki protein symbols allocates its
// working set — the LCP pass's two arrays and the sort's scratch — and none
// of the image: at most 11 B/symbol, where a heap image adds the string, the
// suffix array and the node and symbol sections. The same seal without a
// directory keeps its image on the heap, at about 27.5 B/symbol.
func TestLiveTierBuildAllocatesItsWorkingSet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator changes allocation counts")
	}
	const n = 128 << 10
	docs := sliceCorpus(t, workload.Protein, n, 128, 17)
	seal := func(dir string) float64 {
		cfg := neverSeal(dir)
		cfg.Build = &Config{Alphabet: alphabet.Protein}
		lx, err := NewLive("alloc", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer lx.Close()
		if _, err := lx.Append(docs); err != nil {
			t.Fatal(err)
		}
		got := allocatedBy(func() {
			if err := lx.Seal(); err != nil {
				t.Error(err)
			}
		})
		return float64(got) / n
	}
	inPlace, heap := seal(t.TempDir()), seal("")
	t.Logf("a seal of %d protein symbols allocates %.1f B/symbol in place, %.1f on the heap", n, inPlace, heap)
	if inPlace > 11 {
		t.Errorf("a directory-mode seal allocated %.1f B/symbol, want ≤ 11: its image belongs in the tier file", inPlace)
	}
	if heap < 0.9*27.5 || heap > 1.1*27.5 {
		t.Errorf("a heap-only seal allocated %.1f B/symbol, want within 10 %% of 27.5", heap)
	}
}

// TestFaultInPlaceTierBuild fails each block reservation and each mapping
// of an in-place seal in turn: the seal returns the injected error, the
// memtable keeps serving, no tmp file is left, and the next seal publishes
// the tier.
func TestFaultInPlaceTierBuild(t *testing.T) {
	for _, c := range []struct {
		op  vfs.Op
		nth int
	}{{vfs.OpAllocate, 1}, {vfs.OpMap, 1}, {vfs.OpAllocate, 2}, {vfs.OpMap, 2}} {
		t.Run(fmt.Sprintf("%s-%d", c.op, c.nth), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(nil)
			cfg := neverSeal(dir)
			cfg.fs = ffs
			lx, err := NewLive("fault", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lx.Close()
			o := &liveOracle{}
			docs := [][]byte{[]byte("GATTACAGATTACA"), []byte("CCCGATTACACCC")}
			ids, err := lx.Append(docs)
			if err != nil {
				t.Fatal(err)
			}
			o.append(ids, docs)
			ffs.FailOp(c.op, ffs.KindOps(c.op)+c.nth)
			if err := lx.Seal(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Seal = %v, want the injected %s failure", err, c.op)
			}
			if st := lx.Stats(); st.Tiers != 0 || st.MemtableDocs != len(docs) {
				t.Fatalf("after the failed seal: %d tiers, %d memtable documents", st.Tiers, st.MemtableDocs)
			}
			checkLive(t, lx, o, rand.New(rand.NewSource(1)))
			if tmps := tmpFiles(t, dir); len(tmps) > 0 {
				t.Fatalf("the failed seal left %v", tmps)
			}
			if err := lx.Seal(); err != nil {
				t.Fatalf("retried seal: %v", err)
			}
			if st := lx.Stats(); st.Tiers != 1 {
				t.Fatalf("after the retried seal: %d tiers, want 1", st.Tiers)
			}
			checkLive(t, lx, o, rand.New(rand.NewSource(2)))
		})
	}
}

// TestVerifyNotesCrashLeftovers crashes a seal at each of its filesystem
// operations in turn. Wherever the crash leaves a file no manifest lists —
// a tier's tmp, or a tier published but never listed — Verify names it, with
// its size, as a note and not a problem, and the next open removes it.
func TestVerifyNotesCrashLeftovers(t *testing.T) {
	seen := map[string]bool{}
	for k := 1; k <= 40 && !(seen[".tmp"] && seen[".tier"]); k++ {
		dir := t.TempDir()
		ffs := vfs.NewFault(nil)
		cfg := neverSeal(dir)
		cfg.fs = ffs
		lx, err := NewLive("crash", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lx.Append([][]byte{[]byte("GATTACA"), []byte("CAT")}); err != nil {
			t.Fatal(err)
		}
		ffs.CrashAt(ffs.Ops() + k)
		lx.Seal()
		lx.Close()
		buf, err := os.ReadFile(filepath.Join(dir, liveManifestName))
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseLiveManifest(buf)
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, mt := range m.tiers {
			listed[mt.file] = true
		}
		var left []os.DirEntry
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if liveLeftover(e.Name(), listed) {
				left = append(left, e)
			}
		}
		if len(left) == 0 {
			continue
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("crash@%d: Verify reports problems %v", k, rep.Problems)
		}
		notes := strings.Join(rep.Notes, "\n")
		for _, e := range left {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("leftover %s (%d bytes)", e.Name(), info.Size()); !strings.Contains(notes, want) {
				t.Fatalf("crash@%d: Verify's notes do not name %q:\n%s", k, want, notes)
			}
			seen[filepath.Ext(e.Name())] = true
		}
		re, err := NewLive("", &LiveConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left { // before Close seals the replayed log again
			if _, err := os.Stat(filepath.Join(dir, e.Name())); !os.IsNotExist(err) {
				t.Fatalf("crash@%d: %s survived the next open (%v)", k, e.Name(), err)
			}
		}
		re.Close()
	}
	if !seen[".tmp"] || !seen[".tier"] {
		t.Fatalf("no crash point left both a tmp file and an unlisted tier (saw %v)", seen)
	}
}
