package tensor

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd cross-compiles this package for arm64, whose
// compiler fuses x*y + z into one rounding where the spec allows it,
// and fails if a matmul kernel, its fold helper or a serial reference
// contains a fused multiply-add. The kernels' float32(a*b) conversions
// forbid the fusion; without them arm64 would compute other bits than
// amd64, and the bitwise tests above would hold on one architecture
// only. Running the bitwise suite on arm64 itself needs the hardware;
// the assembly is the offline proxy.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goCmd, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	checked := map[string]bool{
		"matMulRowsBlocked": false, "matMulTransARowsBlocked": false, "matMulTransBRowsBlocked": false,
		"(*foldGroup).fold": false,
		"matMulSerial":      false, "matMulTransASerial": false, "matMulTransBSerial": false,
	}
	fused := regexp.MustCompile(`\tFN?M(ADD|SUB)[SD]\t`)
	var fn string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if sym, _, ok := strings.Cut(line, " STEXT"); ok { // a function's header line
			fn = strings.TrimPrefix(sym, "janus/internal/tensor.")
			if _, ok := checked[fn]; ok {
				checked[fn] = true
			}
			continue
		}
		if _, ok := checked[fn]; ok && fused.MatchString(line) {
			t.Errorf("%s: fused multiply-add on arm64: %s", fn, strings.TrimSpace(line))
		}
	}
	for name, seen := range checked {
		if !seen {
			t.Errorf("%s not found in the arm64 assembly", name)
		}
	}
}
