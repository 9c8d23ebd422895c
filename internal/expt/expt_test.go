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

func TestE1(t *testing.T)  { checkResult(t, e1(0)) }
func TestE2(t *testing.T)  { checkResult(t, e2(0)) }
func TestE3(t *testing.T)  { checkResult(t, e3(0)) }
func TestE4(t *testing.T)  { checkResult(t, e4(0)) }
func TestE5(t *testing.T)  { checkResult(t, e5()) }
func TestE6(t *testing.T)  { checkResult(t, e6(0)) }
func TestE7(t *testing.T)  { checkResult(t, e7(0)) }
func TestE8(t *testing.T)  { checkResult(t, e8(0)) }
func TestE9(t *testing.T)  { checkResult(t, e9(0)) }
func TestE10(t *testing.T) { checkResult(t, e10(0)) }
func TestE11(t *testing.T) { checkResult(t, e11(0)) }

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
	checkResult(t, e5())
}

func TestByID(t *testing.T) {
	for id, want := range map[string]string{"e3": "E3", "E11": "E11"} {
		if e, ok := Lookup(id); !ok || e.ID != want {
			t.Fatalf("Lookup(%q) = %q, %v, want %s", id, e.ID, ok, want)
		}
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("bogus id resolved")
	}
	if ByIDWith("E99", Options{}) != nil {
		t.Fatal("ByIDWith ran a bogus id")
	}
}

func TestE12(t *testing.T) { checkResult(t, e12(0)) }
func TestE13(t *testing.T) { checkResult(t, e13(0)) }

// TestE7JSONRoundTrip: `lynxbench -e E7 -json` must round-trip through
// encoding/json, metric snapshot included.
func TestE7JSONRoundTrip(t *testing.T) {
	r := e7(0)
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
