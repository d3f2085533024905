// Package checkpoint provides versioned, crash-consistent snapshots of
// training state: expert weights (one opaque entry per expert), the
// dense parameters, the step counter and the model version. It is the
// durability layer the livecluster failover leans on — when a machine
// is lost permanently, survivors reload the dead owner's experts from
// the freshest readable checkpoint.
//
// A snapshot has one encoding, EncodeStream: magic, CRC32 of the body,
// body length, body. Live migration ships it between machines, and
// each checkpoint version is one file in it, dir/vNNNNNNNN.ckpt.
//
// Crash consistency comes from the classic temp+fsync+rename recipe:
// Save writes the stream to a hidden temp file, fsyncs it, renames it
// onto the version name and fsyncs the directory. A rename over an
// existing file is atomic, so a reader sees either the old or the new
// complete version, never none; a crash mid-write leaves only an
// ignorable temp file. Load verifies the CRC and length and that the
// stream holds the requested step, so torn, truncated, bit-flipped or
// misnamed files are rejected rather than loaded, and LoadLatest falls
// back to the newest version that still verifies.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Snapshot is one checkpointable training state.
type Snapshot struct {
	// Step is the training iteration the snapshot was taken after; it
	// doubles as the checkpoint version number.
	Step int
	// Experts maps expert id to its serialized weights. The encoding is
	// the caller's (the checkpoint layer treats entries as opaque).
	Experts map[uint32][]byte
	// Dense holds the serialized dense (non-expert) parameters.
	Dense []byte
	// ModelVersion tags the model lineage the weights belong to (a
	// canary candidate exported with livecluster.ExportSnapshot carries
	// its bumped version). The encoding round-trips it; the checkpoint
	// layer does not interpret it. It must not be negative.
	ModelVersion int
}

// ErrNoCheckpoint is returned by LoadLatest when no committed,
// verifiable checkpoint exists under the directory.
var ErrNoCheckpoint = errors.New("checkpoint: no readable checkpoint")

// streamMagic starts every encoded snapshot, on the wire and on disk.
var streamMagic = []byte("JSTRM2\n")

// maxStreamInt bounds the step and the model version a stream carries,
// so each fits an int on every 64-bit platform with headroom and a
// decode reproduces exactly what was encoded. Encode and decode share
// it: a value the decoder would reject is never written.
const maxStreamInt = 1 << 62

// tmpPrefix marks a version file still being written.
const tmpPrefix = ".tmp-"

func versionFile(version int) string { return fmt.Sprintf("v%08d.ckpt", version) }

// parseVersion inverts versionFile; ok is false for foreign names
// (including temp files and version directories of the older layout).
func parseVersion(name string) (int, bool) {
	digits, ok := strings.CutSuffix(name, ".ckpt")
	if !ok || !strings.HasPrefix(digits, "v") {
		return 0, false
	}
	v, err := strconv.Atoi(digits[1:])
	if err != nil || v < 0 || versionFile(v) != name {
		return 0, false
	}
	return v, true
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so the rename of its children is durable.
// It ignores only the errors that mean the filesystem cannot fsync a
// directory at all: errors.ErrUnsupported, and EINVAL, which fsync(2)
// returns for a descriptor that does not support synchronization (some
// network and FUSE filesystems). Any other error — EIO above all —
// means the commit may not survive a crash, and is returned.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// Save commits snap under dir as version snap.Step, atomically:
// a reader never observes a partially written version, and an existing
// version with the same step is replaced with no window in which
// neither copy exists. It returns the bytes written.
func Save(dir string, snap *Snapshot) (int64, error) {
	raw, err := EncodeStream(snap)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	name := versionFile(snap.Step)
	tmp := filepath.Join(dir, tmpPrefix+name)
	if err := writeFileSync(tmp, raw); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return int64(len(raw)), nil
}

// Load reads and fully verifies one committed version: the file must
// decode (magic, length and CRC intact) and hold the requested step.
// Load owns the bytes it read, so the snapshot's expert and dense
// payloads alias them instead of being copied a second time.
func Load(dir string, version int) (*Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, versionFile(version)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: v%d: %w", version, err)
	}
	snap, err := decodeStream(raw, true)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: v%d: %w", version, err)
	}
	if snap.Step != version {
		return nil, fmt.Errorf("checkpoint: v%d: file holds step %d", version, snap.Step)
	}
	return snap, nil
}

// list returns the committed versions under dir, ascending, and the
// names of leftover temp entries. A missing dir lists as empty.
func list(dir string) (versions []int, temps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			temps = append(temps, e.Name())
			continue
		}
		if !e.Type().IsRegular() {
			continue
		}
		if v, ok := parseVersion(e.Name()); ok {
			versions = append(versions, v)
		}
	}
	sort.Ints(versions)
	return versions, temps, nil
}

// Versions lists the committed version numbers under dir, ascending.
// Temp files, directories and foreign files are ignored. Listing does
// not verify integrity; Load does.
func Versions(dir string) ([]int, error) {
	versions, _, err := list(dir)
	return versions, err
}

// LoadLatest returns the newest version that verifies completely,
// skipping (but not deleting) versions that fail integrity checks.
// It returns ErrNoCheckpoint when nothing under dir is loadable.
func LoadLatest(dir string) (*Snapshot, int, error) {
	versions, err := Versions(dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		snap, err := Load(dir, versions[i])
		if err == nil {
			return snap, versions[i], nil
		}
	}
	return nil, 0, ErrNoCheckpoint
}

// Prune removes committed versions older than the newest keep ones
// (and any leftover temp files). keep < 1 is treated as 1.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	versions, temps, err := list(dir)
	if err != nil {
		return err
	}
	for _, name := range temps {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	if len(versions) <= keep {
		return nil
	}
	for _, v := range versions[:len(versions)-keep] {
		if err := os.Remove(filepath.Join(dir, versionFile(v))); err != nil {
			return err
		}
	}
	return nil
}

// EncodeStream serializes snap into its self-verifying form: magic,
// CRC32 of the body, body length, body. The body is the step, the model
// version, the experts in ascending id order (id, length, bytes each),
// then an optional dense section. A reader either decodes the exact
// snapshot that was written or rejects the stream.
func EncodeStream(snap *Snapshot) ([]byte, error) {
	if snap == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	if snap.Step < 0 || uint64(snap.Step) > maxStreamInt {
		return nil, fmt.Errorf("checkpoint: step %d out of range [0, 2^62]", snap.Step)
	}
	if snap.ModelVersion < 0 || uint64(snap.ModelVersion) > maxStreamInt {
		return nil, fmt.Errorf("checkpoint: model version %d out of range [0, 2^62]", snap.ModelVersion)
	}
	hdr := len(streamMagic) + 8
	ids := make([]uint32, 0, len(snap.Experts))
	n := hdr + 8 + 8 + 4 + 1 + 4 + len(snap.Dense)
	for id, data := range snap.Experts {
		ids = append(ids, id)
		n += 8 + len(data)
	}
	// Every length field is a u32; the body length bounds them all.
	if uint64(n-hdr) > math.MaxUint32 {
		return nil, fmt.Errorf("checkpoint: stream body %d bytes exceeds the u32 length field", n-hdr)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	le := binary.LittleEndian
	buf := make([]byte, hdr, n)
	copy(buf, streamMagic)
	buf = le.AppendUint64(buf, uint64(snap.Step))
	buf = le.AppendUint64(buf, uint64(snap.ModelVersion))
	buf = le.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		data := snap.Experts[id]
		buf = le.AppendUint32(buf, id)
		buf = le.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, data...)
	}
	hasDense := byte(0)
	if snap.Dense != nil {
		hasDense = 1
	}
	buf = append(buf, hasDense)
	buf = le.AppendUint32(buf, uint32(len(snap.Dense)))
	buf = append(buf, snap.Dense...)

	body := buf[hdr:]
	le.PutUint32(buf[len(streamMagic):], crc32.ChecksumIEEE(body))
	le.PutUint32(buf[len(streamMagic)+4:], uint32(len(body)))
	return buf, nil
}

// DecodeStream verifies and decodes an encoded snapshot. Any
// truncation, trailing garbage, or bit flip fails the magic, length,
// or CRC check; duplicate or descending expert ids are rejected so the
// encoding is canonical. The caller already holds raw in memory, and
// the length check ties every allocation to it. The snapshot owns
// copies of its payloads, so raw may be reused once it returns (a
// migration payload lives in a recycled frame buffer).
func DecodeStream(raw []byte) (*Snapshot, error) {
	return decodeStream(raw, false)
}

// decodeStream is DecodeStream; with alias set, the snapshot's expert
// and dense payloads are capped sub-slices of raw instead of copies,
// for a caller that owns raw and never reuses it.
func decodeStream(raw []byte, alias bool) (*Snapshot, error) {
	if len(raw) < len(streamMagic)+8 {
		return nil, fmt.Errorf("checkpoint: stream truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(streamMagic)]) != string(streamMagic) {
		return nil, errors.New("checkpoint: bad stream magic")
	}
	wantCRC := binary.LittleEndian.Uint32(raw[len(streamMagic) : len(streamMagic)+4])
	bodyLen := binary.LittleEndian.Uint32(raw[len(streamMagic)+4 : len(streamMagic)+8])
	body := raw[len(streamMagic)+8:]
	if int(bodyLen) != len(body) {
		return nil, fmt.Errorf("checkpoint: stream body %d bytes, header says %d", len(body), bodyLen)
	}
	if crc := crc32.ChecksumIEEE(body); crc != wantCRC {
		return nil, fmt.Errorf("checkpoint: stream CRC mismatch (%08x != %08x)", crc, wantCRC)
	}
	if len(body) < 8+8+4 {
		return nil, errors.New("checkpoint: stream body truncated")
	}
	step := binary.LittleEndian.Uint64(body)
	if step > maxStreamInt {
		return nil, fmt.Errorf("checkpoint: stream step %d out of range", step)
	}
	modelVersion := binary.LittleEndian.Uint64(body[8:])
	if modelVersion > maxStreamInt {
		return nil, fmt.Errorf("checkpoint: stream model version %d out of range", modelVersion)
	}
	nExperts := binary.LittleEndian.Uint32(body[16:])
	off := 20
	// Each expert needs at least its 8-byte header; reject counts the
	// remaining bytes cannot possibly satisfy before allocating.
	if int64(nExperts)*8 > int64(len(body)-off) {
		return nil, fmt.Errorf("checkpoint: stream claims %d experts in %d bytes", nExperts, len(body)-off)
	}
	snap := &Snapshot{Step: int(step), ModelVersion: int(modelVersion), Experts: make(map[uint32][]byte, nExperts)}
	prev := -1
	for i := uint32(0); i < nExperts; i++ {
		if len(body)-off < 8 {
			return nil, errors.New("checkpoint: stream expert header truncated")
		}
		id := binary.LittleEndian.Uint32(body[off:])
		size := binary.LittleEndian.Uint32(body[off+4:])
		off += 8
		if int(id) <= prev {
			return nil, fmt.Errorf("checkpoint: stream expert ids not strictly ascending at %d", id)
		}
		prev = int(id)
		if uint32(len(body)-off) < size {
			return nil, fmt.Errorf("checkpoint: stream expert %d truncated (%d of %d bytes)", id, len(body)-off, size)
		}
		snap.Experts[id] = payload(body[off:off+int(size)], alias)
		off += int(size)
	}
	if len(body)-off < 5 {
		return nil, errors.New("checkpoint: stream dense header truncated")
	}
	hasDense := body[off]
	denseLen := binary.LittleEndian.Uint32(body[off+1:])
	off += 5
	switch hasDense {
	case 0:
		if denseLen != 0 {
			return nil, errors.New("checkpoint: stream dense length set without dense payload")
		}
	case 1:
		if uint32(len(body)-off) < denseLen {
			return nil, fmt.Errorf("checkpoint: stream dense truncated (%d of %d bytes)", len(body)-off, denseLen)
		}
		snap.Dense = payload(body[off:off+int(denseLen)], alias)
		off += int(denseLen)
	default:
		return nil, fmt.Errorf("checkpoint: stream bad dense flag %d", hasDense)
	}
	if off != len(body) {
		return nil, fmt.Errorf("checkpoint: stream has %d trailing bytes", len(body)-off)
	}
	return snap, nil
}

// payload returns b capped at its length when alias is set, so an
// append to one payload never overwrites the next, and a copy of b
// otherwise.
func payload(b []byte, alias bool) []byte {
	if alias {
		return b[:len(b):len(b)]
	}
	return append(make([]byte, 0, len(b)), b...)
}
