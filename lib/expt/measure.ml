open Kernel

let standard_configs = [ (3, 1); (4, 1); (5, 2); (7, 3) ]

let sync_sweep algo config =
  let spec =
    Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup ~algo config
      (Mc.Distrib.Fixed (Sim.Runner.distinct_proposals config))
  in
  (Result.get_ok (Mc.Distrib.run spec)).Mc.Distrib.result

(* Raise [Failure] with a message on one line however long it is: the CLI
   prints it as one stderr line, [ipi verify] as one [FAIL] line. With an
   unbounded margin and indentation the formatter never breaks a line. *)
let fail entry config fmt =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  Format.pp_set_max_indent ppf (Format.pp_get_margin ppf () - 1);
  Format.kfprintf
    (fun ppf ->
      Format.pp_print_flush ppf ();
      failwith (Buffer.contents buf))
    ppf
    ("%s on %a, exhaustive sweep: " ^^ fmt)
    entry.Registry.label Config.pp config

let pp_choices =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    Mc.Serial.pp_choice

let sync_worst_case ~entry ~config =
  let r = sync_sweep entry.Registry.algo config in
  (* The lists are in reverse enumeration order. An undecided run is a
     termination violation. *)
  (match List.rev r.Mc.Exhaustive.violations with
  | [] -> ()
  | (choices, vs) :: _ ->
      fail entry config "%a under %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Sim.Props.pp_violation)
        vs pp_choices choices);
  (match List.rev r.Mc.Exhaustive.crashed with
  | [] -> ()
  | { Mc.Exhaustive.choices; error } :: _ ->
      fail entry config "run crashed: %a under %a" Sim.Engine.pp_step_error
        error pp_choices choices);
  (match r.Mc.Exhaustive.shard_failures with
  | [] -> ()
  | { Mc.Exhaustive.shard; context; message } :: _ ->
      fail entry config "shard %d (%s) failed: %s" shard context message);
  r.Mc.Exhaustive.max_decision
