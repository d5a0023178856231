"""Local-control pulse synthesis for tunable-coupler population transfer."""
