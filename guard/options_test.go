package guard

import (
	"testing"
)

// tenSessions returns a structurally valid training set (content does not
// matter for option validation, which fails before extraction).
func tenSessions() []Session {
	out := make([]Session, 10)
	for i := range out {
		out[i] = Session{Transmitted: make([]float64, 150), Received: make([]float64, 150)}
	}
	return out
}

// TestTrainOptionValidationMessages pins the exact error text of every
// rejected configuration, so callers can match on messages and upgrades
// cannot silently reword them.
func TestTrainOptionValidationMessages(t *testing.T) {
	tests := []struct {
		name     string
		mutate   func(*Options)
		sessions []Session
		want     string
	}{
		{
			name:     "negative workers",
			mutate:   func(o *Options) { o.Workers = -1 },
			sessions: tenSessions(),
			want:     "guard: negative workers -1",
		},
		{
			name:     "negative sampling rate",
			mutate:   func(o *Options) { o.SamplingRateHz = -1 },
			sessions: tenSessions(),
			want:     "guard: core: preprocess: sampling rate -1 must be positive",
		},
		{
			name:     "zero sampling rate",
			mutate:   func(o *Options) { o.SamplingRateHz = 0 },
			sessions: tenSessions(),
			want:     "guard: core: preprocess: sampling rate 0 must be positive",
		},
		{
			name:     "negative threshold",
			mutate:   func(o *Options) { o.Threshold = -3 },
			sessions: tenSessions(),
			want:     "guard: core: threshold -3 must be positive",
		},
		{
			name:     "zero neighbors",
			mutate:   func(o *Options) { o.Neighbors = 0 },
			sessions: tenSessions(),
			want:     "guard: core: neighbors 0 must be >= 1",
		},
		{
			name:     "vote coefficient above one",
			mutate:   func(o *Options) { o.VoteCoefficient = 1.5 },
			sessions: tenSessions(),
			want:     "guard: core: vote coefficient 1.5 outside (0, 1)",
		},
		{
			name:     "neighbors equal to session count",
			mutate:   func(o *Options) { o.Neighbors = 10 },
			sessions: tenSessions(),
			want:     "guard: 10 training sessions insufficient for k = 10",
		},
		{
			name:     "neighbors above session count",
			mutate:   func(o *Options) { o.Neighbors = 12 },
			sessions: tenSessions(),
			want:     "guard: 10 training sessions insufficient for k = 12",
		},
		{
			name:   "mismatched signal lengths",
			mutate: func(o *Options) {},
			sessions: func() []Session {
				s := tenSessions()
				s[2].Received = s[2].Received[:140]
				return s
			}(),
			want: "guard: training session 2: features: signal lengths differ: 150 vs 140",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opt := DefaultOptions()
			tt.mutate(&opt)
			opt.SkipEnrollmentCheck = true // isolate the validation under test
			_, err := Train(opt, tt.sessions)
			if err == nil {
				t.Fatal("invalid configuration accepted")
			}
			if err.Error() != tt.want {
				t.Errorf("error = %q\n       want %q", err, tt.want)
			}
		})
	}
}

// TestZeroWorkersIsValid pins the Workers sizing contract: zero resolves
// to GOMAXPROCS rather than erroring, and DefaultOptions leaves it zero.
func TestZeroWorkersIsValid(t *testing.T) {
	if w := DefaultOptions().Workers; w != 0 {
		t.Errorf("DefaultOptions().Workers = %d, want 0 (auto)", w)
	}
	opt := DefaultOptions()
	opt.SkipEnrollmentCheck = true
	if _, err := Train(opt, tenSessions()); err != nil { // flat signals: extraction still succeeds
		t.Fatalf("zero workers rejected: %v", err)
	}
	if w := opt.workerCount(); w < 1 {
		t.Errorf("zero Workers resolved to %d workers", w)
	}
}
