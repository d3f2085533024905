package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSnap builds a deterministic snapshot with nExperts payloads.
func testSnap(step, nExperts int, seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{Step: step, Experts: make(map[uint32][]byte)}
	for e := 0; e < nExperts; e++ {
		buf := make([]byte, 64+rng.Intn(256))
		rng.Read(buf)
		s.Experts[uint32(e)] = buf
	}
	s.Dense = make([]byte, 128)
	rng.Read(s.Dense)
	return s
}

func mustSave(t *testing.T, dir string, s *Snapshot) int64 {
	t.Helper()
	n, err := Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("save reported %d bytes", n)
	}
	return n
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testSnap(7, 5, 1)
	mustSave(t, dir, want)

	got, err := Load(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != want.Step {
		t.Fatalf("step = %d, want %d", got.Step, want.Step)
	}
	if len(got.Experts) != len(want.Experts) {
		t.Fatalf("experts = %d, want %d", len(got.Experts), len(want.Experts))
	}
	for id, data := range want.Experts {
		if !bytes.Equal(got.Experts[id], data) {
			t.Fatalf("expert %d payload differs", id)
		}
	}
	if !bytes.Equal(got.Dense, want.Dense) {
		t.Fatal("dense payload differs")
	}
}

func TestLoadLatestPicksNewest(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []int{3, 1, 9, 5} {
		mustSave(t, dir, testSnap(step, 2, int64(step)))
	}
	snap, v, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 || snap.Step != 9 {
		t.Fatalf("latest = v%d step %d, want 9", v, snap.Step)
	}
	vs, err := Versions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 || vs[0] != 1 || vs[3] != 9 {
		t.Fatalf("versions = %v", vs)
	}
}

// Steps past eight digits get longer file names and are still listed;
// a name versionFile would not produce (extra zero padding) is foreign.
func TestLoadLatestPicksNineDigitStep(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(99_999_999, 1, 1))
	mustSave(t, dir, testSnap(100_000_000, 1, 2))
	if err := os.WriteFile(filepath.Join(dir, "v000000007.ckpt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if vs, err := Versions(dir); err != nil || len(vs) != 2 || vs[0] != 99_999_999 || vs[1] != 100_000_000 {
		t.Fatalf("versions = %v err %v, want [99999999 100000000]", vs, err)
	}
	if _, v, err := LoadLatest(dir); err != nil || v != 100_000_000 {
		t.Fatalf("latest = v%d err %v, want v100000000", v, err)
	}
}

func TestLoadLatestEmptyAndMissingDir(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v", err)
	}
}

// corruptFile flips one seeded-random byte of the file in [lo, hi) —
// the faultinject idiom applied to storage: the damage site is a
// deterministic function of the seed, so every failure replays.
func corruptFile(t *testing.T, path string, seed int64, lo, hi int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data[lo+rng.Intn(hi-lo)] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixedBytes is the length of a version file's envelope (magic, CRC,
// length) plus the body's fixed fields (step, model version, expert
// count).
var fixedBytes = len(streamMagic) + 8 + 20

// payloadSpan returns where expert id's payload sits in the version
// file of a testSnap snapshot (expert ids 0..n-1).
func payloadSpan(s *Snapshot, id uint32) (int, int) {
	off := fixedBytes
	for e := uint32(0); e < id; e++ {
		off += 8 + len(s.Experts[e])
	}
	off += 8
	return off, off + len(s.Experts[id])
}

func versionPath(dir string, version int) string {
	return filepath.Join(dir, versionFile(version))
}

func TestLoadRejectsBitFlippedEntry(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dir := t.TempDir()
		snap := testSnap(4, 3, seed)
		mustSave(t, dir, snap)
		lo, hi := payloadSpan(snap, 1)
		corruptFile(t, versionPath(dir, 4), seed, lo, hi)
		if _, err := Load(dir, 4); err == nil {
			t.Fatalf("seed %d: bit-flipped expert entry loaded", seed)
		}
	}
}

// The file's envelope and fixed fields play the manifest's part: a
// flip there must be rejected too.
func TestLoadRejectsBitFlippedManifest(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		dir := t.TempDir()
		mustSave(t, dir, testSnap(4, 3, seed))
		corruptFile(t, versionPath(dir, 4), seed, 0, fixedBytes)
		if _, err := Load(dir, 4); err == nil {
			t.Fatalf("seed %d: bit-flipped header loaded", seed)
		}
	}
}

func TestLoadRejectsTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(2, 2, 1))
	path := versionPath(dir, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated payload: the length check fires before the CRC.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 2); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncated file: err = %v", err)
	}

	// Torn envelope: a partial write of the header must be rejected.
	for _, cut := range []int{0, 3, len(streamMagic) + 4, len(raw) - 5} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, 2); err == nil {
			t.Fatalf("torn file (%d bytes) loaded", cut)
		}
	}
}

// A version whose file is gone cannot be loaded.
func TestLoadRejectsMissingEntry(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(3, 2, 1))
	if err := os.Remove(versionPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 3); err == nil {
		t.Fatal("load succeeded with the version file deleted")
	}
}

// A well-formed file under another version's name is rejected: the
// stream's own step must match the name.
func TestLoadRejectsMisnamedVersion(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(2, 2, 1))
	raw, err := os.ReadFile(versionPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(versionPath(dir, 3), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 3); err == nil {
		t.Fatal("v2's file loaded as v3")
	}
	if _, v, err := LoadLatest(dir); err != nil || v != 2 {
		t.Fatalf("latest = v%d err %v, want v2", v, err)
	}
}

// A crash mid-save leaves only a partial temp file; it must be
// invisible to readers and cleaned by Prune.
func TestTempDirIgnoredAndPruned(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(1, 2, 1))
	raw, err := EncodeStream(testSnap(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, tmpPrefix+versionFile(2))
	if err := os.WriteFile(tmp, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, v, err := LoadLatest(dir); err != nil || v != 1 {
		t.Fatalf("latest = v%d err %v, want v1", v, err)
	}
	if err := Prune(dir, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("prune left the temp file behind")
	}
}

// When the newest version is damaged, LoadLatest falls back to the
// newest version that still verifies.
func TestLoadLatestFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(1, 2, 1))
	mustSave(t, dir, testSnap(2, 2, 2))
	newest := testSnap(3, 2, 3)
	mustSave(t, dir, newest)
	lo, hi := payloadSpan(newest, 0)
	corruptFile(t, versionPath(dir, 3), 5, lo, hi)
	snap, v, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || snap.Step != 2 {
		t.Fatalf("latest = v%d, want fallback to v2", v)
	}
}

// A same-step Save replaces the version in place: the directory then
// holds exactly one entry for the step and no temp file.
func TestSaveOverwritesSameVersion(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(5, 2, 1))
	want := testSnap(5, 3, 9)
	mustSave(t, dir, want)
	got, err := Load(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experts) != 3 || !bytes.Equal(got.Experts[2], want.Experts[2]) {
		t.Fatal("overwrite did not replace the version contents")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != versionFile(5) {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, versionFile(5))
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for step := 1; step <= 5; step++ {
		mustSave(t, dir, testSnap(step, 1, int64(step)))
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	vs, err := Versions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 4 || vs[1] != 5 {
		t.Fatalf("versions after prune = %v, want [4 5]", vs)
	}
}

// Directories are never versions: a version directory of the older
// layout (vNNNNNNNN/ with a MANIFEST) and a directory that borrows a
// version file's name are neither listed, loaded nor pruned, and a
// Save of the same step writes beside them.
func TestDirectoriesAreNotVersions(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, dir, testSnap(1, 2, 1))
	mustSave(t, dir, testSnap(2, 2, 2))
	old := filepath.Join(dir, "v00000009")
	if err := os.Mkdir(old, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(old, "MANIFEST")
	if err := os.WriteFile(manifest, []byte("JCKPT1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	named := filepath.Join(dir, versionFile(10))
	if err := os.Mkdir(named, 0o755); err != nil {
		t.Fatal(err)
	}
	if vs, err := Versions(dir); err != nil || len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("versions = %v err %v, want [1 2]", vs, err)
	}
	if _, v, err := LoadLatest(dir); err != nil || v != 2 {
		t.Fatalf("latest = v%d err %v, want v2", v, err)
	}
	if err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	if vs, err := Versions(dir); err != nil || len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("versions after prune = %v err %v, want [2]", vs, err)
	}
	for _, p := range []string{manifest, named} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("prune touched %s: %v", p, err)
		}
	}
	mustSave(t, dir, testSnap(9, 2, 9))
	if snap, v, err := LoadLatest(dir); err != nil || v != 9 || snap.Step != 9 {
		t.Fatalf("latest = v%d err %v, want v9", v, err)
	}
}

func TestModelVersionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// A canary snapshot carries its lineage through save/load.
	canary := &Snapshot{Step: 5, ModelVersion: 2,
		Experts: map[uint32][]byte{1: {9, 9}}, Dense: []byte{1}}
	if _, err := Save(dir, canary); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != 2 {
		t.Fatalf("ModelVersion = %d, want 2", got.ModelVersion)
	}
	base := &Snapshot{Step: 6, Experts: map[uint32][]byte{1: {7}}}
	if _, err := Save(dir, base); err != nil {
		t.Fatal(err)
	}
	got, err = Load(dir, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != 0 {
		t.Fatalf("ModelVersion = %d, want 0", got.ModelVersion)
	}
}

// TestSaveStepRangeBound: a step or model version above 2^62, which no
// decode accepts, is rejected by Save before anything is written, so
// Save never reports success for a version Load cannot read; 2^62
// itself round-trips.
func TestSaveStepRangeBound(t *testing.T) {
	dir := t.TempDir()
	for _, s := range []*Snapshot{
		{Step: 1<<62 + 1, Experts: map[uint32][]byte{1: {2}}},
		{Step: 3, ModelVersion: 1<<62 + 1, Experts: map[uint32][]byte{1: {2}}},
	} {
		if _, err := Save(dir, s); err == nil {
			t.Fatalf("Save(step %d, model version %d) succeeded", s.Step, s.ModelVersion)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("rejected saves left %d entries (err %v)", len(ents), err)
	}
	mustSave(t, dir, &Snapshot{Step: 1 << 62, ModelVersion: 1 << 62, Experts: map[uint32][]byte{1: {2}}})
	snap, v, err := LoadLatest(dir)
	if err != nil || v != 1<<62 || snap.Step != 1<<62 || snap.ModelVersion != 1<<62 {
		t.Fatalf("LoadLatest = v%d err %v, want step and model version 2^62", v, err)
	}
}

// TestLoadPayloadsAreCapped: Load's payloads alias the bytes it read,
// each capped at its own length, so appending to one expert's payload
// leaves its neighbour and the dense section intact.
func TestLoadPayloadsAreCapped(t *testing.T) {
	dir := t.TempDir()
	want := testSnap(2, 3, 4)
	mustSave(t, dir, want)
	got, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	spill := bytes.Repeat([]byte{0xEE}, 16) // past the next entry's 8-byte header
	for id := range got.Experts {
		_ = append(got.Experts[id], spill...)
	}
	for id, data := range want.Experts {
		if !bytes.Equal(got.Experts[id], data) {
			t.Fatalf("expert %d changed after appending to the payloads", id)
		}
	}
	if !bytes.Equal(got.Dense, want.Dense) {
		t.Fatal("dense changed after appending to the expert payloads")
	}
}
