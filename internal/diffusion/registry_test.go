package diffusion

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func TestModelsEnumeratesRegistry(t *testing.T) {
	want := []string{"ic", "lt", "mfc", "pushpull", "sir", "voter"}
	if got := Models(); !reflect.DeepEqual(got, want) {
		t.Errorf("Models() = %v, want %v", got, want)
	}
}

func TestLookupUnknownModelMessage(t *testing.T) {
	// "ltff" is a retired model name: it must stay unknown.
	for _, name := range []string{"gossip", "ltff"} {
		_, err := Lookup(name)
		if err == nil {
			t.Fatalf("Lookup of unknown model %q succeeded", name)
		}
		want := `diffusion: unknown model "` + name + `" (registered: ic, lt, mfc, pushpull, sir, voter)`
		if err.Error() != want {
			t.Errorf("error = %q, want %q", err.Error(), want)
		}
	}
}

func TestLookupReturnsFreshInstances(t *testing.T) {
	a, err := Lookup("mfc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lookup("mfc")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Lookup returned a shared instance")
	}
	if err := a.Validate(Params{"alpha": 9.0}); err != nil {
		t.Fatal(err)
	}
	// b must still hold the defaults: run both on a line where boosting is
	// irrelevant and compare nothing — instead check a's mutation didn't
	// leak by validating b with a conflicting value and running both.
	g := line(t, sgraph.Positive)
	ca, err := a.Run(g, []int{0}, pos(t), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Run(g, []int{0}, pos(t), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Error("fresh instances with equivalent effective configs diverged on a weight-1 line")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("mfc", func() Model { return &mfcModel{} })
}

func TestValidatePinnedMessages(t *testing.T) {
	cases := []struct {
		model  string
		params Params
		want   string
	}{
		{"mfc", Params{"alpha": "three"}, `diffusion: model "mfc": param "alpha": want number, got string`},
		{"mfc", Params{"disable_flip": 1}, `diffusion: model "mfc": param "disable_flip": want boolean, got int`},
		{"mfc", Params{"beta": 1}, `diffusion: model "mfc": unknown param "beta" (accepts: alpha, disable_flip)`},
		{"lt", Params{"max_rounds": 1.5}, `diffusion: model "lt": param "max_rounds": want integer, got 1.5`},
		{"lt", Params{"max_rounds": -1}, `diffusion: invalid model coefficient: LT MaxRounds must be non-negative, got -1`},
		{"sir", Params{"gamma": 2}, `diffusion: invalid model coefficient: SIR Gamma must be in (0,1], got 2`},
		{"sir", Params{"beta": -1}, `diffusion: invalid model coefficient: SIR Beta must be positive, got -1`},
		{"voter", Params{"rounds": 0}, `diffusion: invalid model coefficient: Voter Rounds must be positive, got 0`},
		{"pushpull", Params{"stall": -2}, `diffusion: invalid model coefficient: PushPull Stall must be non-negative, got -2`},
		{"ic", Params{"alpha": 2}, `diffusion: model "ic": unknown param "alpha" (model takes no params)`},
	}
	for _, tc := range cases {
		m, err := Lookup(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Validate(tc.params)
		if err == nil {
			t.Errorf("model %q params %v: Validate succeeded, want %q", tc.model, tc.params, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("model %q params %v:\n  got  %q\n  want %q", tc.model, tc.params, err.Error(), tc.want)
		}
	}
}

func TestValidateKeepsConfigOnError(t *testing.T) {
	m, err := Lookup("sir")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(Params{"beta": 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(Params{"gamma": 7}); err == nil {
		t.Fatal("out-of-range gamma accepted")
	}
	sm := m.(*sirModel)
	if sm.cfg.Beta != 1.5 || sm.cfg.Gamma != DefaultSIRGamma {
		t.Errorf("failed Validate mutated config: %+v", sm.cfg)
	}
}

func TestValidateNilParamsUsesDefaults(t *testing.T) {
	for _, name := range Models() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(nil); err != nil {
			t.Errorf("model %q: Validate(nil) = %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("model %q: Name() = %q", name, m.Name())
		}
	}
}

func TestModelInterfacesImplemented(t *testing.T) {
	for _, name := range Models() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(CounterRecorder); !ok {
			t.Errorf("model %q does not implement CounterRecorder", name)
		}
	}
	m, err := Lookup("mfc")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(ProgressReporter); !ok {
		t.Error("mfc does not implement ProgressReporter")
	}
}

func TestLookupErrorListsEveryModel(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, name := range Models() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-model error does not list %q: %v", name, err)
		}
	}
}
