(** Fat-tree evaluation (§5.2): Table 1, Figures 8–11 and Table 3, all
    derived from one memoized run per (scheme, pattern) pair over the
    same {!Run_spec.base}, exactly as the paper derives them from the
    same runs. *)

val print_table1 : Run_spec.base -> unit

val print_fig8 : Run_spec.base -> unit

val print_fig9 : Run_spec.base -> unit

val print_fig10 : Run_spec.base -> unit

val print_fig11 : Run_spec.base -> unit

val print_table3 : Run_spec.base -> unit
