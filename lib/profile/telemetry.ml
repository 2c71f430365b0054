let report ~profile ~metrics ppf () =
  if profile then Profile.pp_phases ppf ();
  if metrics then Metrics.report ppf ()
  else if profile then Profile.pp_counters ppf ()

(* The phase timers come on for any instrument: the metrics sidecar
   embeds the phase table. *)
let with_telemetry ?(profile = false) ?(metrics = false) ?trace_out
    ?metrics_out ?(explain = false) f =
  if profile || metrics || trace_out <> None || metrics_out <> None then begin
    Profile.enabled := true;
    Profile.reset ()
  end;
  if trace_out <> None then begin
    Trace.enabled := true;
    Trace.reset ()
  end;
  if metrics || metrics_out <> None then begin
    Metrics.enabled := true;
    Metrics.reset ()
  end;
  if explain then Profile.provenance_enabled := true;
  Fun.protect ~finally:(fun () ->
      Option.iter Metrics.write_json_atomic metrics_out;
      Option.iter Trace.write trace_out)
  @@ fun () ->
  let r = f () in
  Fmt.epr "%a" (report ~profile ~metrics) ();
  r
