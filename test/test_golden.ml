(* Golden output of the TCP analyzer loop: for HTTP, MQTT and FTP, each
   with its standard and its BinPAC++ parser, each with and without idle
   eviction, the digest of every log the bundled scripts write, of the
   event stream the driver raises (names, rendered arguments and
   trace-time updates, in order), and the driver's counters.  The
   expected values were recorded from the driver before its per-protocol
   TCP loops were merged into one, so any change in event order, uid
   assignment, eviction points or parse-error handling shows up here. *)

open Hilti_analyzers

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())
let logs = [ "http"; "files"; "dns"; "mqtt"; "ftp" ]

(* The driver's own counters, read as deltas over one run. *)
let metrics = [ "events_raised"; "parse_errors"; "bytes_trimmed" ]

let hex s = Digest.to_hex (Digest.string s)

(* The script engine's sink, with every call also appended to [stream]. *)
let recording_sink engine stream =
  let inner = Events.engine_sink engine in
  {
    Events.raise_event =
      (fun name args ->
        Buffer.add_string stream name;
        List.iter
          (fun a ->
            Buffer.add_char stream ' ';
            Buffer.add_string stream (Mini_bro.Bro_val.to_string a))
          args;
        Buffer.add_char stream '\n';
        inner.Events.raise_event name args);
    set_time =
      (fun ts ->
        Buffer.add_string stream ("@" ^ Hilti_types.Time_ns.to_string ts ^ "\n");
        inner.Events.set_time ts);
  }

let summary ~proto ?idle_timeout src =
  let logger = Mini_bro.Bro_log.create () in
  Mini_bro.Bro_scripts.setup_logs logger;
  let engine =
    Mini_bro.Bro_engine.load ~logger Mini_bro.Bro_engine.Interpreted (Lazy.force scripts)
  in
  Mini_bro.Bro_engine.set_print_sink engine ignore;
  let stream = Buffer.create 65536 in
  let sink = recording_sink engine stream in
  let counters = List.map (fun m -> (m, Hilti_obs.Metrics.counter m)) metrics in
  let before = List.map (fun (_, c) -> Hilti_obs.Metrics.counter_value c) counters in
  let s =
    Hilti_obs.Metrics.with_enabled true (fun () ->
        match proto with
        | `Http kind -> Driver.run_http_src ~kind ~sink ?idle_timeout src
        | `Mqtt kind -> Driver.run_mqtt_src ~kind ~sink ?idle_timeout src
        | `Ftp kind -> Driver.run_ftp_src ~kind ~sink ?idle_timeout src)
  in
  let digest name = name ^ "=" ^ hex (Mini_bro.Bro_log.to_string logger name) in
  let delta (m, c) b = Printf.sprintf "%s=%d" m (Hilti_obs.Metrics.counter_value c - b) in
  String.concat " "
    (List.map digest logs
    @ [
        "events_digest=" ^ hex (Buffer.contents stream);
        Printf.sprintf "packets=%d connections=%d events=%d evicted=%d"
          s.Driver.packets s.Driver.connections s.Driver.events s.Driver.evicted;
      ]
    @ List.map2 delta counters before)

let idle = Hilti_types.Interval_ns.of_msecs 5

(* About a third of the connections carry junk, so parsers fail mid-stream
   and the parse-error latch is exercised alongside the clean sessions. *)
let crud_prob = 0.3

let http_src () =
  Hilti_traces.Http_gen.iosrc
    { Hilti_traces.Http_gen.default with sessions = 40; crud_prob }

let mqtt_src () =
  Hilti_traces.Mqtt_gen.iosrc
    { Hilti_traces.Mqtt_gen.default with sessions = 25; crud_prob }

let ftp_src () =
  Hilti_traces.Ftp_gen.iosrc
    { Hilti_traces.Ftp_gen.default with sessions = 20; crud_prob }

(* (name, protocol and parser, source, expected summary without eviction,
   expected summary with [idle] eviction) *)
let cases =
  [
    ( "http/std",
      (fun () -> `Http Driver.Http_std),
      http_src,
      "http=1e69063cac2ba0cac7bd376a1a0f10d3 files=409d76c3d0f87262ad903453d2c0268a dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=1764a9dbdcbbc57e544f2775cc8f6a1a packets=377 connections=40 events=183 evicted=0 events_raised=183 parse_errors=0 bytes_trimmed=144196",
      "http=1e69063cac2ba0cac7bd376a1a0f10d3 files=409d76c3d0f87262ad903453d2c0268a dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=1fce8ee16a1fb056e299e7fbf2ef9807 packets=377 connections=40 events=183 evicted=36 events_raised=183 parse_errors=0 bytes_trimmed=144196" );
    ( "http/pac",
      (fun () -> `Http (Driver.Http_pac (Http_pac.load ()))),
      http_src,
      "http=49f28578e641dee3c3920110c7c00555 files=32d15cc089651338646fba32f1623326 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=98f00f2d14c8955075c058708c6b72e4 packets=377 connections=40 events=183 evicted=0 events_raised=183 parse_errors=13 bytes_trimmed=144196",
      "http=49f28578e641dee3c3920110c7c00555 files=32d15cc089651338646fba32f1623326 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=1a1ab87172781ba04c10002bec07c57a packets=377 connections=40 events=183 evicted=36 events_raised=183 parse_errors=13 bytes_trimmed=144196" );
    ( "mqtt/std",
      (fun () -> `Mqtt Driver.Mqtt_std),
      mqtt_src,
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=68151e35b590299f45de2084ba4ba8b0 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=ad958fcc5c54c0777e3321788c170290 packets=286 connections=25 events=135 evicted=0 events_raised=135 parse_errors=12 bytes_trimmed=2482",
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=68151e35b590299f45de2084ba4ba8b0 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=30611af5f1314573d5e191e66bae47c4 packets=286 connections=25 events=135 evicted=22 events_raised=135 parse_errors=12 bytes_trimmed=2482" );
    ( "mqtt/pac",
      (fun () -> `Mqtt (Driver.Mqtt_pac (Mqtt_pac.load ()))),
      mqtt_src,
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=68151e35b590299f45de2084ba4ba8b0 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=ad958fcc5c54c0777e3321788c170290 packets=286 connections=25 events=135 evicted=0 events_raised=135 parse_errors=12 bytes_trimmed=2482",
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=68151e35b590299f45de2084ba4ba8b0 ftp=d0e0a44345834c5ab2da7c86faa689bd events_digest=30611af5f1314573d5e191e66bae47c4 packets=286 connections=25 events=135 evicted=22 events_raised=135 parse_errors=12 bytes_trimmed=2482" );
    ( "ftp/std",
      (fun () -> `Ftp Driver.Ftp_std),
      ftp_src,
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=7019257bb69673f71a007b2db3dfd653 events_digest=7a2221b493a06bdfe034487a36b887b2 packets=479 connections=37 events=303 evicted=0 events_raised=303 parse_errors=7 bytes_trimmed=4422",
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=7019257bb69673f71a007b2db3dfd653 events_digest=d9c01956c31a738373575d26501d1c83 packets=479 connections=37 events=303 evicted=34 events_raised=303 parse_errors=7 bytes_trimmed=4422" );
    ( "ftp/pac",
      (fun () -> `Ftp (Driver.Ftp_pac (Ftp_pac.load ()))),
      ftp_src,
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=7019257bb69673f71a007b2db3dfd653 events_digest=7a2221b493a06bdfe034487a36b887b2 packets=479 connections=37 events=303 evicted=0 events_raised=303 parse_errors=7 bytes_trimmed=4422",
      "http=cb7a5cc3e5175a66b10100a7b9de534b files=ef54102851ebcdef400bf539437dd149 dns=655d92c92474a7538e4dda238a0de4e9 mqtt=9d3455c295b6a3c94a85bb167e1cfc09 ftp=7019257bb69673f71a007b2db3dfd653 events_digest=d9c01956c31a738373575d26501d1c83 packets=479 connections=37 events=303 evicted=34 events_raised=303 parse_errors=7 bytes_trimmed=4422" );
  ]

let suite =
  List.concat_map
    (fun (name, proto, src, plain, evicting) ->
      [
        Alcotest.test_case (name ^ ": logs and counters") `Quick (fun () ->
            Alcotest.(check string) name plain (summary ~proto:(proto ()) (src ())));
        Alcotest.test_case (name ^ ": logs and counters, idle eviction") `Quick
          (fun () ->
            Alcotest.(check string)
              name evicting
              (summary ~proto:(proto ()) ~idle_timeout:idle (src ())));
      ])
    cases
