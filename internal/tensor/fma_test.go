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

// TestNoFusedMultiplyAdd cross-compiles the bit-exact packages for
// arm64, whose compiler fuses x*y + z into one rounding where the spec
// allows it, and fails on a fused multiply-add in a checked function.
// The float32(a*b) / float64(a*b) conversions forbid the fusion; without
// them arm64 would compute other bits than amd64, and the bitwise tests
// would hold on one architecture only. Running the bitwise suites on
// arm64 itself needs the hardware; the assembly is the offline proxy.
//
// Each row names the functions that must appear in the assembly; a row
// with all set checks every function of the package, not only those.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the packages")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	pkgs := []struct {
		path  string
		funcs []string
		all   bool
	}{
		// The matmul kernels, their fold helper, the serial references,
		// GeLU and the seeded initial weights, in every function.
		{"janus/internal/tensor", []string{
			"matMulRowsBlocked", "matMulTransARowsBlocked", "matMulTransBRowsBlocked",
			"(*foldGroup).fold",
			"matMulSerial", "matMulTransASerial", "matMulTransBSerial",
			"gelu", "geluPrime", "NewRandom", "(*Matrix).AddScaledRow",
		}, true},
		// The fluid model's anchored accounting, in every function.
		{"janus/internal/fabric", []string{
			"(*Network).settle", "(*Flow).Remaining", "(*Link).CarriedBytes", "(*Link).BusySeconds",
		}, true},
		// The event clock and the processors' busy time, in every
		// function.
		{"janus/internal/sim", []string{
			"(*Engine).Schedule", "(*Processor).startNext",
		}, true},
		// The live plane: the SGD step and the reference layer, the
		// trainer's merge and forward/backward piece, the transport's
		// peer scores and backoff, and the serving traffic model.
		{"janus/internal/moe", []string{
			"(*Expert).ApplySGD", "(*Layer).ForwardBackwardExpertCentric",
		}, true},
		{"janus/internal/livecluster", []string{
			"(*machineStore).applyMergeLocked", "(*stepRun).computePiece",
		}, true},
		{"janus/internal/transport", []string{
			"(*Client).noteAttempt", "(*Client).sleepBackoff",
		}, true},
		{"janus/internal/serving", []string{
			"Traffic.Rate",
		}, true},
	}
	fused := regexp.MustCompile(`\tFN?M(ADD|SUB)[SD]\t`)
	for _, pkg := range pkgs {
		cmd := exec.Command(goCmd, "build", "-gcflags=-S", pkg.path)
		cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=arm64 go build -gcflags=-S %s: %v\n%s", pkg.path, err, out)
		}
		seen := map[string]bool{}
		for _, fn := range pkg.funcs {
			seen[fn] = false
		}
		var fn string
		inPkg := false
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			line := sc.Text()
			if sym, _, ok := strings.Cut(line, " STEXT"); ok { // a function's header line
				fn, inPkg = strings.CutPrefix(sym, pkg.path+".")
				if _, ok := seen[fn]; ok {
					seen[fn] = true
				}
				continue
			}
			if _, named := seen[fn]; (named || pkg.all && inPkg) && fused.MatchString(line) {
				t.Errorf("%s.%s: fused multiply-add on arm64: %s", pkg.path, fn, strings.TrimSpace(line))
			}
		}
		for name, ok := range seen {
			if !ok {
				t.Errorf("%s.%s not found in the arm64 assembly", pkg.path, name)
			}
		}
	}
}
