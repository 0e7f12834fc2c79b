let line ev = Json.to_string (Event.to_json ev)

let to_string events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (line ev);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let to_channel oc events =
  List.iter
    (fun ev ->
      output_string oc (line ev);
      output_char oc '\n')
    events

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest ->
        let trimmed = String.trim raw in
        if trimmed = "" || trimmed.[0] = '#' then loop (lineno + 1) acc rest
        else
          let parsed =
            match Json.of_string trimmed with
            | Ok json -> Event.of_json json
            | Error e -> Error e
          in
          (match parsed with
          | Ok ev -> loop (lineno + 1) (ev :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  loop 1 [] lines
