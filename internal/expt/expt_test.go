package expt

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// Each experiment must run cleanly and match the paper's shape.

func checkResult(t *testing.T, r *Result) {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	t.Log("\n" + r.Render())
	if !r.Pass {
		t.Errorf("%s: measured shape does not match the paper", r.ID)
	}
}

func TestE1(t *testing.T)  { checkResult(t, E1()) }
func TestE2(t *testing.T)  { checkResult(t, E2()) }
func TestE3(t *testing.T)  { checkResult(t, E3()) }
func TestE4(t *testing.T)  { checkResult(t, E4()) }
func TestE5(t *testing.T)  { checkResult(t, E5()) }
func TestE6(t *testing.T)  { checkResult(t, E6()) }
func TestE7(t *testing.T)  { checkResult(t, E7()) }
func TestE8(t *testing.T)  { checkResult(t, E8()) }
func TestE9(t *testing.T)  { checkResult(t, E9()) }
func TestE10(t *testing.T) { checkResult(t, E10()) }
func TestE11(t *testing.T) { checkResult(t, E11()) }

// E5 counts the module's own source, so it must find that source from
// any working directory, not only from inside the module. (os.Chdir,
// not t.Chdir: go.mod declares go 1.22.)
func TestE5OutsideModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	checkResult(t, E5())
}

func TestByID(t *testing.T) {
	if ByID("e3") == nil || ByID("E11") == nil {
		t.Fatal("ByID lookup failed")
	}
	if ByID("E99") != nil {
		t.Fatal("bogus id resolved")
	}
}

func TestE12(t *testing.T) { checkResult(t, E12()) }
func TestE13(t *testing.T) { checkResult(t, E13()) }

// TestE7JSONRoundTrip: `lynxbench -e E7 -json` must round-trip through
// encoding/json, metric snapshot included.
func TestE7JSONRoundTrip(t *testing.T) {
	r := E7()
	if len(r.Metrics) == 0 {
		t.Fatal("E7 result carries no obs metric snapshot")
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", back, *r)
	}
	if back.Metrics["charlotte/"+"unwanted_receives_total{proc=1}"] == 0 {
		t.Errorf("expected a nonzero charlotte unwanted-receive count in the snapshot")
	}
}
