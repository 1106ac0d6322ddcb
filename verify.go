package era

import (
	"fmt"
	"os"
	"path/filepath"

	"era/internal/suffixtree"
)

// VerifyReport is the result of Verify: what was checked and what failed.
// An empty Problems list means everything reachable from the path is
// healthy.
type VerifyReport struct {
	Path     string
	Kind     string   // "monolithic", "sharded", or "live"
	Notes    []string // components checked, human-oriented
	Problems []string // failures found
}

func (r *VerifyReport) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *VerifyReport) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// OK reports whether verification found no problems.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify checks every stored checksum reachable from path — an index file,
// or a live directory (its manifest, every sealed tier, and the write-ahead
// log) — and, behind the checksums, the structure of every tree image
// (suffixtree.ValidateView: the leaf section a permutation of the suffixes,
// each internal node in exactly one parent's child run, leaf ranges nested,
// siblings' first symbols ascending), without
// modifying anything on disk. Unlike opening a live directory, Verify never
// truncates a torn WAL tail or quarantines a damaged tier; it only reports.
// The returned error covers being unable to start (path unreadable);
// verification failures land in VerifyReport.Problems.
func Verify(path string) (*VerifyReport, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return verifyLiveDir(path)
	}
	if filepath.Base(path) == liveManifestName {
		return verifyLiveDir(filepath.Dir(path))
	}
	return verifyIndexFile(path)
}

// verifyMono checks one opened monolithic index: its stored checksums, then —
// once those vouch for the bytes — the structure of the tree image, which the
// query paths only ever clamp.
func verifyMono(x *Index) error {
	if err := x.CheckErr(); err != nil {
		return err
	}
	if err := suffixtree.ValidateView(x.tree, x.lo, x.hi); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	return nil
}

func verifyIndexFile(path string) (*VerifyReport, error) {
	rep := &VerifyReport{Path: path, Kind: "monolithic"}
	q, err := OpenIndex(path)
	if err != nil {
		rep.problem("open: %v", err)
		return rep, nil
	}
	defer q.Close()
	switch x := q.(type) {
	case *Index:
		if err := verifyMono(x); err != nil {
			rep.problem("%v", err)
			return rep, nil
		}
		rep.note("header, section checksums and tree structure verified (%d documents, %d symbols)", x.NumDocs(), x.Len())
	case *ShardedIndex:
		rep.Kind = "sharded"
		for i, sh := range x.shards {
			if err := verifyMono(sh); err != nil {
				rep.problem("shard %d: %v", i, err)
				return rep, nil
			}
		}
		rep.note("all %d shards verified (%d documents)", x.NumShards(), x.NumDocs())
	default:
		rep.Kind = "live"
		rep.problem("open returned unexpected index type %T", q)
	}
	return rep, nil
}

// verifyLiveDir checks a live directory read-only: manifest parse (footer
// included), every tier's shape and checksums, and a WAL scan that reports
// — but does not truncate — a torn tail.
func verifyLiveDir(dir string) (*VerifyReport, error) {
	rep := &VerifyReport{Path: dir, Kind: "live"}
	buf, err := os.ReadFile(filepath.Join(dir, liveManifestName))
	if err != nil {
		return nil, err
	}
	m, err := parseLiveManifest(buf)
	if err != nil {
		rep.problem("manifest %s: %v", liveManifestName, err)
		return rep, nil
	}
	rep.note("manifest: %d tiers, next id %d", len(m.tiers), m.nextID)
	for _, mt := range m.tiers {
		q, err := OpenIndex(filepath.Join(dir, mt.file))
		if err != nil {
			rep.problem("tier %s: %v", mt.file, err)
			continue
		}
		idx, ok := q.(*Index)
		switch {
		case !ok:
			rep.problem("tier %s: not a monolithic index", mt.file)
		case idx.NumDocs() != len(mt.ids):
			rep.problem("tier %s: holds %d documents, manifest says %d", mt.file, idx.NumDocs(), len(mt.ids))
		case len(idx.lo)+len(idx.hi) > 0:
			rep.problem("tier %s: holds one range of the suffix order, not all of it", mt.file)
		default:
			if err := verifyMono(idx); err != nil {
				rep.problem("tier %s: %v", mt.file, err)
			} else {
				rep.note("tier %s: %d documents, checksums and tree structure verified", mt.file, idx.NumDocs())
			}
		}
		q.Close()
	}
	wbuf, err := os.ReadFile(filepath.Join(dir, walName))
	switch {
	case os.IsNotExist(err):
		rep.note("no WAL present")
	case err != nil:
		rep.problem("wal: %v", err)
	default:
		var recs int
		valid := walScan(wbuf, func(walRecord) bool { recs++; return true })
		if tail := int64(len(wbuf)) - valid; tail > 0 {
			// A torn tail is the expected artifact of a crash mid-append:
			// replay drops it, losing only the never-acknowledged record.
			rep.note("wal: %d valid records (%d bytes); %d-byte torn tail will be dropped at the next open", recs, valid, tail)
		} else {
			rep.note("wal: %d records, all valid", recs)
		}
	}
	return rep, nil
}
